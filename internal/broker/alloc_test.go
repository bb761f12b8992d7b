package broker

import (
	"fmt"
	"testing"

	"nostop/internal/sim"
)

// Per-record ingest is the hottest broker path: once the sample ring is
// full, Send must overwrite in place and allocate nothing.
func TestAllocsSendFullRing(t *testing.T) {
	bus, err := NewBus([]int{1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bus.CreateTopic("in", 2, 8); err != nil {
		t.Fatal(err)
	}
	prod, err := bus.NewProducer("in")
	if err != nil {
		t.Fatal(err)
	}
	// Fill every partition's sample ring so append switches to overwrite.
	for i := 0; i < 32; i++ {
		prod.Send("k", "v", sim.Time(i))
	}
	allocs := testing.AllocsPerRun(1000, func() {
		prod.Send("k", "v", sim.Time(99))
	})
	if allocs != 0 {
		t.Fatalf("Send with full ring allocates %.1f/op, want 0", allocs)
	}
	allocs = testing.AllocsPerRun(1000, func() {
		prod.SendCount(10)
	})
	if allocs != 0 {
		t.Fatalf("SendCount allocates %.1f/op, want 0", allocs)
	}
}

// The pooled fetch/commit/release cycle must be allocation-free once the
// chunk free list and slice capacities are warm.
func TestAllocsFetchChunkCycle(t *testing.T) {
	bus, err := NewBus([]int{1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bus.CreateTopic("in", 2, 8); err != nil {
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
	// Warm the chunk pool and its slice capacities.
	for i := 0; i < 4; i++ {
		prod.Send("k", "v", sim.Time(i))
		if c := group.FetchChunk(0); c != nil {
			group.Commit(c.Ranges)
			group.Release(c)
		}
	}
	allocs := testing.AllocsPerRun(1000, func() {
		prod.Send("k", "v", sim.Time(50))
		prod.SendCount(3)
		c := group.FetchChunk(0)
		if c == nil {
			t.Fatal("FetchChunk returned nil with records pending")
		}
		group.Commit(c.Ranges)
		group.Release(c)
	})
	if allocs != 0 {
		t.Fatalf("fetch/commit/release cycle allocates %.1f/op, want 0", allocs)
	}
}

// BenchmarkSendCount measures one send: a SendCount of a typical producer
// tick's records (a 150k rec/s stream at 100 ms) to a topic of 48
// partitions (sweep's) or 100 (tenants'). The engine sends once per run of
// ticks, and a send costs the same whatever its count.
func BenchmarkSendCount(b *testing.B) {
	for _, parts := range []int{48, 100} {
		b.Run(fmt.Sprintf("partitions=%d", parts), func(b *testing.B) {
			bus, err := NewBus([]int{1, 2, 3, 4})
			if err != nil {
				b.Fatal(err)
			}
			if _, err := bus.CreateTopic("in", parts, 0); err != nil {
				b.Fatal(err)
			}
			prod, err := bus.NewProducer("in")
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				prod.SendCount(15007)
			}
		})
	}
}
