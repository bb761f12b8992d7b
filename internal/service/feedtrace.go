package service

import (
	"fmt"
	"time"

	"nostop/internal/sim"
)

// FeedTrace is a ratetrace.Trace assembled online from fetch responses:
// each successful fetch appends one piecewise-constant segment carrying
// exactly the fetched record count, which the engine's producer then
// integrates tick by tick. Because segment rates are count/duration and
// RecordsIn integrates piecewise-constant traces exactly, the engine ingests
// (up to float rounding carried by the engine's fractional accumulator) the
// same number of records the broker served — the property the committed-
// offset mapping depends on.
//
// Segments never overlap: a new segment is clipped to start at the previous
// segment's end (latency jitter can deliver a fetch slightly before the
// prior segment expires), with its rate recomputed so the count is
// preserved. Old segments are pruned once the producer is safely past them.
//
// Unlike the traces in package ratetrace, a FeedTrace's rate at an instant
// is not fixed: an Add sets the rate from its clipped start on, moves
// NextChange before that start, and prunes segments that ended more than
// 10 s before it. What an Add leaves unchanged is the integral over every
// interval that ends at or before its clipped start and starts no earlier
// than 10 s before it. The producer integrates each tick once, up to the
// current instant, through a ratetrace.Integrator that keeps nothing between
// calls, so it relies on no more than that.
type FeedTrace struct {
	segs  []feedSeg
	total int64
}

type feedSeg struct {
	start, end sim.Time
	rate       float64
}

// Add appends n records spread over [start, start+d), clipped to begin after
// the previous segment.
func (f *FeedTrace) Add(start sim.Time, d time.Duration, n int64) {
	if n <= 0 {
		return
	}
	if k := len(f.segs); k > 0 && f.segs[k-1].end > start {
		start = f.segs[k-1].end
	}
	end := start + sim.Time(d)
	if end <= start {
		end = start + sim.Time(time.Millisecond)
	}
	f.total += n
	f.segs = append(f.segs, feedSeg{
		start: start, end: end,
		rate: float64(n) / time.Duration(end-start).Seconds(),
	})
	// Prune segments the producer has fully consumed. The producer
	// integrates at most one tick behind "now" (= start at call time), so
	// anything ending over 10 virtual seconds ago is dead.
	cut := 0
	for cut < len(f.segs) && f.segs[cut].end+sim.Time(10*time.Second) < start {
		cut++
	}
	if cut > 0 {
		f.segs = append(f.segs[:0], f.segs[cut:]...)
	}
}

// RateAt implements ratetrace.Trace.
func (f *FeedTrace) RateAt(t sim.Time) float64 {
	for i := len(f.segs) - 1; i >= 0; i-- {
		s := f.segs[i]
		if t >= s.start && t < s.end {
			return s.rate
		}
		if s.end <= t {
			return 0 // segments are ordered; nothing earlier can cover t
		}
	}
	return 0
}

// NextChange implements ratetrace.Trace: the next segment boundary
// strictly after t.
func (f *FeedTrace) NextChange(t sim.Time) sim.Time {
	for _, s := range f.segs {
		if s.start > t {
			return s.start
		}
		if s.end > t {
			return s.end
		}
	}
	return sim.Infinity
}

// Describe implements ratetrace.Trace.
func (f *FeedTrace) Describe() string {
	return fmt.Sprintf("service feed (%d records)", f.total)
}
