package service

import (
	"math"
	"testing"
	"time"

	"nostop/internal/ratetrace"
	"nostop/internal/sim"
)

// TestFeedTraceAddKeepsPastIntegrals pins the contract the engine's
// producer tick relies on: an Add leaves the integral unchanged on every
// interval that ends at or before the added segment's clipped start and
// starts no more than 10 s before it. It changes the rate at and after the
// clipped start, and NextChange before it, which is why nothing may be
// cached across an Add; and it prunes what lies further back.
func TestFeedTraceAddKeepsPastIntegrals(t *testing.T) {
	ms := func(n int) sim.Time { return sim.Time(n) * sim.Time(time.Millisecond) }
	f := &FeedTrace{}
	clipped := false
	// Fetch replies about a second apart, a few milliseconds late by
	// varying amounts, as the service engine adds them.
	for k, jitter := range []int{7, 22, 3, 15, 15, 29, 0, 11, 2, 26, 9, 1, 18, 4, 4, 27, 6, 13, 0, 21} {
		start := ms(1000*(k+1) + jitter)
		cut := start // the clipped start
		if n := len(f.segs); n > 0 && f.segs[n-1].end > start {
			cut, clipped = f.segs[n-1].end, true
		}
		type span struct{ from, to sim.Time }
		var spans []span
		for a := cut - ms(10_000); a < cut; a += ms(37) {
			for _, b := range []sim.Time{a + ms(1), a + ms(100), cut - ms(1), cut} {
				if b > a && b <= cut {
					spans = append(spans, span{a, b})
				}
			}
		}
		if clipped && start < cut {
			spans = append(spans, span{start, cut}) // after the unclipped start, before the clipped one
		}
		before := make([]float64, len(spans))
		for i, s := range spans {
			before[i] = ratetrace.RecordsIn(f, s.from, s.to)
		}
		rateAtCut, nextBefore := f.RateAt(cut), f.NextChange(cut-1)

		f.Add(start, time.Second, int64(400+37*k))

		for i, s := range spans {
			if got := ratetrace.RecordsIn(f, s.from, s.to); math.Float64bits(got) != math.Float64bits(before[i]) {
				t.Fatalf("Add at %v (clipped to %v) moved the integral over [%v, %v) from %v to %v",
					start, cut, s.from, s.to, before[i], got)
			}
		}
		if f.RateAt(cut) == rateAtCut {
			t.Fatalf("Add at %v left the rate at its clipped start %v at %v", start, cut, rateAtCut)
		}
		if k == 0 && f.NextChange(cut-1) == nextBefore {
			t.Fatalf("the first Add left NextChange before it at %v", nextBefore)
		}
	}
	if !clipped {
		t.Fatal("no Add was clipped to the previous segment's end")
	}
	// Segments that ended more than 10 s before the last Add are gone.
	if got := ratetrace.RecordsIn(f, ms(1000), ms(2000)); got != 0 {
		t.Fatalf("pruned span still integrates to %v", got)
	}
}
