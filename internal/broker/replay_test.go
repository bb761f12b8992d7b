package broker

import (
	"testing"

	"nostop/internal/sim"
)

func replayBus(t *testing.T, parts int) (*Bus, *Topic, *Producer, *ConsumerGroup) {
	t.Helper()
	bus, err := NewBus([]int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	topic, err := bus.CreateTopic("in", parts, 64)
	if err != nil {
		t.Fatal(err)
	}
	prod, err := bus.NewProducer("in")
	if err != nil {
		t.Fatal(err)
	}
	group, err := bus.NewConsumerGroup("in")
	if err != nil {
		t.Fatal(err)
	}
	return bus, topic, prod, group
}

func TestFetchDoesNotCommit(t *testing.T) {
	_, _, prod, group := replayBus(t, 2)
	prod.SendCount(100)
	c := group.FetchChunk(0)
	if c == nil || c.Count != 100 {
		t.Fatalf("fetched %+v, want 100", c)
	}
	if group.Lag() != 0 {
		t.Fatalf("lag %d after full fetch, want 0", group.Lag())
	}
	if group.CommittedLag() != 100 {
		t.Fatalf("committed lag %d before commit, want 100", group.CommittedLag())
	}
	group.Commit(c.Ranges)
	group.Release(c)
	if group.CommittedLag() != 0 {
		t.Fatalf("commit did not settle: committed lag %d", group.CommittedLag())
	}
}

func TestPartitionOutageReplayAtLeastOnce(t *testing.T) {
	// Fail a partition mid-poll — after records were fetched but before
	// they were committed — then restore it. No record may be lost, and
	// the re-fetched span must be counted as redelivered.
	_, topic, prod, group := replayBus(t, 2)
	for i := 0; i < 40; i++ {
		prod.Send("", "v", sim.Time(i))
	}

	// First fetch delivers everything, but nothing is committed yet.
	c := group.FetchChunk(0)
	if c == nil || c.Count != 40 {
		t.Fatalf("fetched %+v, want 40", c)
	}

	// Partition 0's leader dies: the in-flight fetch session is lost and
	// the consumer rewinds to the committed offset, abandoning the fetch.
	p0 := topic.Partitions[0]
	p0.SetDown(true)
	if re := group.Rewind(0); re != 20 {
		t.Fatalf("rewind redelivered %d, want 20", re)
	}
	group.Release(c)
	if group.Redelivered() != 20 {
		t.Fatalf("redelivered counter %d, want 20", group.Redelivered())
	}

	// While down, more records arrive on both partitions; fetch can only
	// reach the live partition.
	prod.SendCount(20) // 10 per partition
	c = group.FetchChunk(0)
	if c == nil || c.Count != 10 {
		t.Fatalf("fetched %+v from live partition during outage, want 10", c)
	}
	for _, r := range c.Ranges {
		if r.Partition == 0 {
			t.Fatalf("fetched range %+v from a down partition", r)
		}
	}
	group.Commit(c.Ranges)
	group.Release(c)

	// Restoration exposes the whole rewound backlog again.
	p0.SetDown(false)
	c = group.FetchChunk(0)
	if c == nil || c.Count != 30 { // 20 redelivered + 10 produced during the outage
		t.Fatalf("fetched %+v after restore, want 30", c)
	}
	group.Commit(c.Ranges)
	group.Release(c)

	if group.CommittedLag() > 0 {
		t.Fatal("records lost: not every produced offset was committed")
	}
	if got, want := group.committed[0], topic.Partitions[0].End(); got != want {
		t.Fatalf("partition 0 committed %d, want %d", got, want)
	}
}

func TestRewindWithoutUncommittedIsNoop(t *testing.T) {
	_, _, prod, group := replayBus(t, 1)
	prod.SendCount(10)
	c := group.FetchChunk(0)
	if c == nil || c.Count != 10 {
		t.Fatalf("fetched %+v", c)
	}
	group.Commit(c.Ranges)
	group.Release(c)
	if re := group.Rewind(0); re != 0 {
		t.Fatalf("rewind after commit redelivered %d, want 0", re)
	}
	if group.Redelivered() != 0 {
		t.Fatalf("redelivered %d, want 0", group.Redelivered())
	}
}

func TestCommitIsMonotonic(t *testing.T) {
	// A retried batch can complete after a later batch already committed
	// past it; committing its stale range must not move offsets backwards.
	_, _, prod, group := replayBus(t, 1)
	prod.SendCount(30)
	c1 := group.FetchChunk(10)
	c2 := group.FetchChunk(20)
	group.Commit(c2.Ranges)
	group.Release(c2)
	if group.committed[0] != 30 {
		t.Fatalf("committed %d, want 30", group.committed[0])
	}
	group.Commit(c1.Ranges)
	group.Release(c1)
	if group.committed[0] != 30 {
		t.Fatalf("stale commit moved offset to %d", group.committed[0])
	}
}

func TestOutagePreservesPayloads(t *testing.T) {
	// Payload records fetched before an outage must be delivered again
	// after the rewind: the sample ring still holds them.
	_, topic, prod, group := replayBus(t, 1)
	for i := 0; i < 8; i++ {
		prod.Send("k", "payload", sim.Time(i))
	}
	c := group.FetchChunk(0)
	if c == nil || len(c.Records) != 8 {
		t.Fatalf("first delivery %+v, want 8 payloads", c)
	}
	topic.Partitions[0].SetDown(true)
	group.Rewind(0)
	group.Release(c)
	topic.Partitions[0].SetDown(false)
	c = group.FetchChunk(0)
	if c == nil || len(c.Records) != 8 {
		t.Fatalf("redelivery %+v, want 8 payloads", c)
	}
	group.Commit(c.Ranges)
	group.Release(c)
	if group.CommittedLag() > 0 {
		t.Fatal("redelivered records not committed")
	}
}
