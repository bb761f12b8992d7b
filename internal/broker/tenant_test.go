package broker

import (
	"testing"

	"nostop/internal/sim"
)

// Tenant accounting must track produced/fetched/committed/redelivered
// incrementally and exactly, aggregated across all the tenant's topics.
func TestTenantAccounting(t *testing.T) {
	bus, err := NewBus([]int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bus.CreateTenantTopic("orders", "acme", 2, 8); err != nil {
		t.Fatal(err)
	}
	if _, err := bus.CreateTenantTopic("clicks", "acme", 2, 8); err != nil {
		t.Fatal(err)
	}
	if _, err := bus.CreateTenantTopic("logs", "globex", 2, 8); err != nil {
		t.Fatal(err)
	}
	// Untenanted topics mint no account.
	if _, err := bus.CreateTopic("plain", 2, 0); err != nil {
		t.Fatal(err)
	}
	if len(bus.tenants) != 2 {
		t.Fatalf("%d accounts for two tenants", len(bus.tenants))
	}

	orders, _ := bus.NewProducer("orders")
	clicks, _ := bus.NewProducer("clicks")
	logs, _ := bus.NewProducer("logs")
	for i := 0; i < 10; i++ {
		orders.Send("k", "v", sim.Time(i))
	}
	clicks.SendCount(5)
	logs.SendCount(3)

	acme := bus.tenants["acme"]
	if acme == nil {
		t.Fatal("acme account missing")
	}
	if acme.Produced != 15 {
		t.Fatalf("acme produced %d, want 15 (aggregated across topics)", acme.Produced)
	}
	if g := bus.tenants["globex"]; g == nil || g.Produced != 3 {
		t.Fatalf("globex account = %+v, want produced 3", g)
	}
	if acctLag(acme) != 15 || acctCommittedLag(acme) != 15 {
		t.Fatalf("pre-fetch lag = %d/%d, want 15/15", acctLag(acme), acctCommittedLag(acme))
	}

	group, err := bus.NewConsumerGroup("orders")
	if err != nil {
		t.Fatal(err)
	}
	c := group.FetchChunk(6)
	if c == nil || c.Count != 6 {
		t.Fatalf("fetched %+v, want 6", c)
	}
	if acme.Fetched != 6 {
		t.Fatalf("acme fetched %d, want 6", acme.Fetched)
	}
	if acctLag(acme) != 9 {
		t.Fatalf("post-fetch lag %d, want 9", acctLag(acme))
	}
	group.Commit(c.Ranges)
	group.Release(c)
	if acme.Committed != 6 {
		t.Fatalf("acme committed %d, want 6", acme.Committed)
	}
	if acctCommittedLag(acme) != 9 {
		t.Fatalf("committed lag %d, want 9", acctCommittedLag(acme))
	}
}

// A partition rewind (outage redelivery) must tick the tenant's Redelivered
// and keep Lag consistent with the group's own accounting.
func TestTenantAccountingRedelivery(t *testing.T) {
	bus, err := NewBus([]int{1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bus.CreateTenantTopic("in", "acme", 1, 8); err != nil {
		t.Fatal(err)
	}
	prod, _ := bus.NewProducer("in")
	prod.SendCount(8)
	group, _ := bus.NewConsumerGroup("in")
	c := group.FetchChunk(8)
	if c == nil || c.Count != 8 {
		t.Fatal("fetch failed")
	}

	redelivered := group.Rewind(0) // uncommitted records re-queued
	group.Release(c)
	acme := bus.tenants["acme"]
	if acme.Redelivered != redelivered || redelivered != 8 {
		t.Fatalf("account redelivered %d, group rewound %d, want 8", acme.Redelivered, redelivered)
	}
	if acctLag(acme) != group.Lag() {
		t.Fatalf("account lag %d != group lag %d", acctLag(acme), group.Lag())
	}
}

// The per-tenant accounting rides the hot produce/fetch/commit path and must
// stay allocation-free — the PR-7 hotalloc contract extended to tenancy.
func TestAllocsTenantAccounting(t *testing.T) {
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
		t.Fatalf("tenant-accounted produce/fetch/commit cycle allocates %.1f/op, want 0", allocs)
	}
}

// acctLag is a tenant's consumer lag: produced but not yet fetched, with
// rewound (to-be-redelivered) spans counted as lag again.
func acctLag(a *TenantAccount) int64 { return a.Produced + a.Redelivered - a.Fetched }

// acctCommittedLag is what a tenant produced but has not durably processed.
func acctCommittedLag(a *TenantAccount) int64 { return a.Produced - a.Committed }
