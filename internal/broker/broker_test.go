package broker

import (
	"errors"
	"fmt"
	"testing"
	"testing/quick"

	"nostop/internal/rng"
)

func newTestBus(t *testing.T, partitions, sampleCap int) (*Bus, *Topic) {
	t.Helper()
	bus, err := NewBus([]int{1, 2, 3, 4, 5})
	if err != nil {
		t.Fatal(err)
	}
	topic, err := bus.CreateTopic("events", partitions, sampleCap)
	if err != nil {
		t.Fatal(err)
	}
	return bus, topic
}

// poll consumes up to max records and commits them at once, as a consumer
// outside replay would: FetchChunk, Commit and Release. It returns the
// count and a copy of the payloads, which the chunk holds only until
// released.
func poll(g *ConsumerGroup, max int64) (int64, []Record) {
	c := g.FetchChunk(max)
	if c == nil {
		return 0, nil
	}
	n, recs := c.Count, append([]Record(nil), c.Records...)
	g.Commit(c.Ranges)
	g.Release(c)
	return n, recs
}

func TestNewBusValidation(t *testing.T) {
	if _, err := NewBus(nil); !errors.Is(err, ErrNoBrokers) {
		t.Fatalf("err=%v", err)
	}
}

func TestCreateTopicValidation(t *testing.T) {
	bus, _ := NewBus([]int{1})
	if _, err := bus.CreateTopic("t", 0, 0); !errors.Is(err, ErrBadPartitions) {
		t.Fatalf("err=%v", err)
	}
	if _, err := bus.CreateTopic("t", 2, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := bus.CreateTopic("t", 2, 0); !errors.Is(err, ErrTopicExists) {
		t.Fatalf("err=%v", err)
	}
	if _, err := bus.Topic("missing"); !errors.Is(err, ErrUnknownTopic) {
		t.Fatalf("err=%v", err)
	}
}

func TestPartitionsSpreadAcrossBrokers(t *testing.T) {
	bus, topic := newTestBus(t, 30, 0)
	if len(topic.Partitions) != 30 {
		t.Fatalf("partitions=%d", len(topic.Partitions))
	}
	perBroker := map[int]int{}
	for _, p := range topic.Partitions {
		perBroker[p.Broker.ID]++
	}
	for id, n := range perBroker {
		if n != 6 {
			t.Fatalf("broker %d hosts %d partitions, want 6", id, n)
		}
	}
	for _, br := range bus.brokers {
		if len(br.partitions) != 6 {
			t.Fatalf("broker view has %d partitions", len(br.partitions))
		}
	}
}

func TestSendAssignsRoundRobinOffsets(t *testing.T) {
	bus, _ := newTestBus(t, 3, 10)
	prod, err := bus.NewProducer("events")
	if err != nil {
		t.Fatal(err)
	}
	var recs []Record
	for i := 0; i < 7; i++ {
		recs = append(recs, prod.Send("k", fmt.Sprintf("v%d", i), 0))
	}
	wantPart := []int{0, 1, 2, 0, 1, 2, 0}
	for i, r := range recs {
		if r.Partition != wantPart[i] {
			t.Fatalf("record %d on partition %d, want %d", i, r.Partition, wantPart[i])
		}
	}
	if recs[0].Offset != 0 || recs[3].Offset != 1 || recs[6].Offset != 2 {
		t.Fatalf("offsets wrong: %+v", recs)
	}
}

func TestSendCountSpreadsEvenly(t *testing.T) {
	bus, topic := newTestBus(t, 4, 0)
	prod, _ := bus.NewProducer("events")
	prod.SendCount(10) // 3,3,2,2
	ends := []int64{}
	for _, p := range topic.Partitions {
		ends = append(ends, p.End())
	}
	var total int64
	for _, e := range ends {
		total += e
		if e < 2 || e > 3 {
			t.Fatalf("uneven spread: %v", ends)
		}
	}
	if total != 10 {
		t.Fatalf("total %d, want 10", total)
	}
	if topic.TotalEnd() != 10 {
		t.Fatalf("TotalEnd=%d", topic.TotalEnd())
	}
}

func TestSendCountNonPositiveNoop(t *testing.T) {
	bus, topic := newTestBus(t, 2, 0)
	prod, _ := bus.NewProducer("events")
	prod.SendCount(0)
	prod.SendCount(-5)
	if topic.TotalEnd() != 0 {
		t.Fatal("non-positive SendCount produced records")
	}
}

func TestSendCountConservesTotalProperty(t *testing.T) {
	f := func(counts []uint16, partsRaw uint8) bool {
		parts := int(partsRaw%16) + 1
		bus, _ := NewBus([]int{1, 2})
		topic, _ := bus.CreateTopic("t", parts, 0)
		prod, _ := bus.NewProducer("t")
		var want int64
		for _, c := range counts {
			prod.SendCount(int64(c))
			want += int64(c)
		}
		if topic.TotalEnd() != want {
			return false
		}
		// Skew check: partitions differ by at most len(counts) records.
		var min, max int64 = 1 << 62, -1
		for _, p := range topic.Partitions {
			if p.End() < min {
				min = p.End()
			}
			if p.End() > max {
				max = p.End()
			}
		}
		return max-min <= int64(len(counts))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: rng.New(41).Rand()}); err != nil {
		t.Error(err)
	}
}

func TestConsumerGroupPollAndLag(t *testing.T) {
	bus, _ := newTestBus(t, 3, 0)
	prod, _ := bus.NewProducer("events")
	group, err := bus.NewConsumerGroup("events")
	if err != nil {
		t.Fatal(err)
	}
	if group.Lag() != 0 {
		t.Fatal("fresh group has lag")
	}
	prod.SendCount(100)
	if group.Lag() != 100 {
		t.Fatalf("Lag=%d, want 100", group.Lag())
	}
	n, _ := poll(group, 30)
	if n != 30 {
		t.Fatalf("poll consumed %d, want 30", n)
	}
	if group.Lag() != 70 {
		t.Fatalf("Lag=%d after partial poll, want 70", group.Lag())
	}
	n, _ = poll(group, 0) // drain
	if n != 70 || group.Lag() != 0 {
		t.Fatalf("drain consumed %d, lag %d", n, group.Lag())
	}
	n, _ = poll(group, 10)
	if n != 0 {
		t.Fatalf("empty poll consumed %d", n)
	}
}

func TestConsumerGroupIndependentGroups(t *testing.T) {
	bus, _ := newTestBus(t, 2, 0)
	prod, _ := bus.NewProducer("events")
	g1, _ := bus.NewConsumerGroup("events")
	prod.SendCount(50)
	g2, _ := bus.NewConsumerGroup("events")
	poll(g1, 0)
	if g1.Lag() != 0 {
		t.Fatal("g1 lag after drain")
	}
	// g2 started at begin offsets (0), so still sees everything.
	if g2.Lag() != 50 {
		t.Fatalf("g2 lag=%d, want 50", g2.Lag())
	}
}

func TestPollDeliversRetainedPayloads(t *testing.T) {
	bus, _ := newTestBus(t, 2, 100)
	prod, _ := bus.NewProducer("events")
	group, _ := bus.NewConsumerGroup("events")
	for i := 0; i < 10; i++ {
		prod.Send("user", fmt.Sprintf("click-%d", i), 0)
	}
	n, payloads := poll(group, 0)
	if n != 10 {
		t.Fatalf("consumed %d, want 10", n)
	}
	if len(payloads) != 10 {
		t.Fatalf("payloads=%d, want 10", len(payloads))
	}
	seen := map[string]bool{}
	for _, r := range payloads {
		seen[r.Value] = true
	}
	for i := 0; i < 10; i++ {
		if !seen[fmt.Sprintf("click-%d", i)] {
			t.Fatalf("missing payload click-%d", i)
		}
	}
}

func TestPollDoesNotRedeliverPayloads(t *testing.T) {
	bus, _ := newTestBus(t, 1, 100)
	prod, _ := bus.NewProducer("events")
	group, _ := bus.NewConsumerGroup("events")
	prod.Send("k", "a", 0)
	poll(group, 0)
	prod.Send("k", "b", 0)
	_, payloads := poll(group, 0)
	if len(payloads) != 1 || payloads[0].Value != "b" {
		t.Fatalf("redelivered payloads: %+v", payloads)
	}
}

func TestSampleRingEviction(t *testing.T) {
	bus, topic := newTestBus(t, 1, 3)
	prod, _ := bus.NewProducer("events")
	for i := 0; i < 5; i++ {
		prod.Send("k", fmt.Sprintf("v%d", i), 0)
	}
	// A fetch of all five records carries the three the ring kept, oldest
	// first.
	group, _ := bus.NewConsumerGroup(topic.Name)
	tail := group.FetchChunk(0).Records
	if len(tail) != 3 {
		t.Fatalf("tail len=%d, want 3", len(tail))
	}
	for i, want := range []string{"v2", "v3", "v4"} {
		if tail[i].Value != want {
			t.Fatalf("tail=%v", tail)
		}
	}
}

func TestSampleCapZeroRetainsNothing(t *testing.T) {
	bus, topic := newTestBus(t, 1, 0)
	prod, _ := bus.NewProducer("events")
	prod.Send("k", "v", 0)
	group, _ := bus.NewConsumerGroup(topic.Name)
	if c := group.FetchChunk(0); c.Count != 1 || len(c.Records) != 0 {
		t.Fatal("sampleCap=0 retained payloads")
	}
}

func TestMixedCountAndPayloadOffsets(t *testing.T) {
	bus, topic := newTestBus(t, 1, 10)
	prod, _ := bus.NewProducer("events")
	prod.SendCount(5)
	rec := prod.Send("k", "real", 0)
	if rec.Offset != 5 {
		t.Fatalf("payload offset %d after 5 counted records, want 5", rec.Offset)
	}
	if topic.TotalEnd() != 6 {
		t.Fatalf("TotalEnd=%d", topic.TotalEnd())
	}
}

func TestPollConservationProperty(t *testing.T) {
	// Property: total consumed over arbitrary produce/poll interleavings
	// equals total produced minus final lag.
	f := func(ops []uint16) bool {
		bus, topic := func() (*Bus, *Topic) {
			b, _ := NewBus([]int{1, 2, 3})
			tp, _ := b.CreateTopic("t", 7, 0)
			return b, tp
		}()
		prod, _ := bus.NewProducer("t")
		group, _ := bus.NewConsumerGroup("t")
		var consumed int64
		for i, op := range ops {
			if i%2 == 0 {
				prod.SendCount(int64(op % 1000))
			} else {
				n, _ := poll(group, int64(op%500))
				consumed += n
			}
		}
		return consumed+group.Lag() == topic.TotalEnd()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: rng.New(43).Rand()}); err != nil {
		t.Error(err)
	}
}

func TestCommittedTracksPolls(t *testing.T) {
	bus, _ := newTestBus(t, 2, 0)
	prod, _ := bus.NewProducer("events")
	group, _ := bus.NewConsumerGroup("events")
	prod.SendCount(10) // 5 per partition
	poll(group, 0)
	if group.committed[0] != 5 || group.committed[1] != 5 {
		t.Fatalf("committed=(%d,%d), want (5,5)", group.committed[0], group.committed[1])
	}
}
