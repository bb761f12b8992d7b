package broker

import (
	"testing"

	"nostop/internal/sim"
)

// A tenant topic's produce/fetch/commit cycle rides the hot path and must
// stay allocation-free, as on any topic.
func TestAllocsTenantTopicCycle(t *testing.T) {
	bus, err := NewBus([]int{1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bus.CreateTenantTopic("in", "acme", 2, 8); err != nil {
		t.Fatal(err)
	}
	prod, _ := bus.NewProducer("in")
	group, _ := bus.NewConsumerGroup("in")
	// Warm rings, chunk pool, and slice capacities.
	for i := 0; i < 32; i++ {
		prod.Send("k", "v", sim.Time(i))
	}
	for i := 0; i < 4; i++ {
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
		t.Fatalf("tenant topic produce/fetch/commit cycle allocates %.1f/op, want 0", allocs)
	}
}
