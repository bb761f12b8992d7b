package sim

import (
	"testing"
	"time"
)

// Allocation budget: once the free list and container capacities are warm,
// scheduling and firing events must not allocate. This is the load-bearing
// property behind the event-pool design — a regression here silently erodes
// the kernel win, so it fails the test suite instead.

func TestAllocsScheduleFireHeapPath(t *testing.T) {
	c := NewClock()
	fn := func() {}
	// Warm the pool and heap capacity.
	for i := 0; i < 64; i++ {
		c.At(c.Now()+Time(i+1), fn)
	}
	for c.Step() {
	}
	allocs := testing.AllocsPerRun(1000, func() {
		c.At(c.Now()+1, fn)
		c.Step()
	})
	if allocs != 0 {
		t.Fatalf("heap-path schedule+fire allocates %.1f/op, want 0", allocs)
	}
}

func TestAllocsScheduleFireFIFOPath(t *testing.T) {
	c := NewClock()
	fn := func() {}
	for i := 0; i < 64; i++ {
		c.At(c.Now(), fn) // grow the ring
	}
	for c.Step() {
	}
	allocs := testing.AllocsPerRun(1000, func() {
		c.At(c.Now(), fn)
		c.Step()
	})
	if allocs != 0 {
		t.Fatalf("FIFO-path schedule+fire allocates %.1f/op, want 0", allocs)
	}
}

func TestAllocsTickerTick(t *testing.T) {
	c := NewClock()
	tk := c.NewTicker(1, func() {})
	for i := 0; i < 64; i++ {
		c.Step()
	}
	allocs := testing.AllocsPerRun(1000, func() {
		c.Step()
	})
	if allocs != 0 {
		t.Fatalf("ticker tick allocates %.1f/op, want 0", allocs)
	}
	tk.Stop()

	// The tenant mix's shape: 32 tickers on one lane over a deep heap of
	// events due far beyond the ticks.
	c = NewClock()
	fn := func() {}
	for i := 0; i < 50; i++ {
		c.At(Time(i+1)*Time(time.Hour), fn)
	}
	for i := 0; i < 32; i++ {
		c.NewTicker(100*time.Millisecond, fn)
	}
	for i := 0; i < 64*32; i++ {
		c.Step()
	}
	allocs = testing.AllocsPerRun(1000, func() {
		c.Step()
	})
	if allocs != 0 {
		t.Fatalf("32-ticker tick over a deep heap allocates %.1f/op, want 0", allocs)
	}
	if len(c.lanes) != 2 {
		t.Fatalf("32 tickers of one period use %d lanes, want 2 (same-instant + 100ms)", len(c.lanes))
	}
}

// TestAllocsTickerInPlace: a ticker alone on its clock fires its next
// firing in place under RunUntil. Those firings and the settle that ends
// each run allocate nothing, and the ticker keeps its one node: the free
// list is left as it was.
func TestAllocsTickerInPlace(t *testing.T) {
	c := NewClock()
	fired, inPlace, settles := 0, 0, 0
	var tk *Ticker
	tk = c.NewTicker(time.Millisecond, func() {
		fired++
		if tk.ev.n.due != c.Now() { // never queued for this instant
			inPlace++
		}
	})
	tk.SetSettle(func() { settles++ })
	fn := func() {}
	for i := 0; i < 8; i++ {
		c.At(Time(i)*Time(time.Microsecond), fn) // leaves 8 nodes on the free list
	}
	c.RunUntil(64 * Time(time.Millisecond))
	node, free := tk.ev.n, c.free
	freeLen := func() int {
		k := 0
		for n := c.free; n != nil; n = n.next {
			k++
		}
		return k
	}
	want := freeLen()
	fired, inPlace, settles = 0, 0, 0
	allocs := testing.AllocsPerRun(100, func() {
		c.RunUntil(c.Now() + Time(time.Second))
	})
	if allocs != 0 {
		t.Fatalf("in-place ticker firings allocate %.1f per run of 1000, want 0", allocs)
	}
	if tk.ev.n != node || c.free != free || freeLen() != want {
		t.Fatal("in-place firings changed the ticker's node or the free list")
	}
	// Each RunUntil pops the firing its predecessor queued at the horizon
	// and fires the other 999 in place, all in one run.
	if fired != 101*1000 || inPlace != 101*999 || settles != 101 {
		t.Fatalf("%d firings, %d in place, %d settles; want %d, %d and 101",
			fired, inPlace, settles, 101*1000, 101*999)
	}
}

func TestAllocsScheduleCancel(t *testing.T) {
	c := NewClock()
	fn := func() {}
	for i := 0; i < 64; i++ {
		c.At(c.Now()+Time(i+1), fn)
	}
	for c.Step() {
	}
	allocs := testing.AllocsPerRun(1000, func() {
		e := c.At(c.Now()+5, fn)
		c.Cancel(e)
	})
	if allocs != 0 {
		t.Fatalf("schedule+cancel allocates %.1f/op, want 0", allocs)
	}
}
