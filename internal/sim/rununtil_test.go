package sim

import (
	"fmt"
	"testing"
	"time"

	"nostop/internal/rng"
)

// RunUntil fires a ticker's next firing in place when nothing pending is
// due at or before it; Step never does. These tests run one random program
// on two clocks, one advanced by Step up to each horizon and one by
// RunUntil, and require the same firings at the same times, and the same
// Now, Executed and Pending after every advance. The programs mix tickers
// sharing a lane and tickers alone in one, At events that tie with ticker
// firings, cancels, outside and in-handler Stop and Reset, Clock.Stop, and
// horizons that land exactly on firing instants.

// choices supplies a program's random choices. Each clock of a comparison
// reads its own choices from the same seed or bytes, so both draw alike
// for as long as they fire alike.
type choices interface{ intn(n int) int }

type rngChoices struct{ s *rng.Stream }

func (c rngChoices) intn(n int) int { return c.s.Intn(n) }

// byteChoices reads the fuzzer's bytes, then zeros.
type byteChoices struct{ b []byte }

func (c *byteChoices) intn(n int) int {
	if len(c.b) == 0 {
		return 0
	}
	v := int(c.b[0])
	c.b = c.b[1:]
	return v % n
}

// diffPeriods are the ticker periods: 10 ms twice so that tickers share a
// lane, the others often alone in theirs.
var diffPeriods = []time.Duration{ms(1), ms(3), ms(7), ms(10), ms(10), ms(25)}

// A diffRecord is one firing (advance false: id, at) or the clock's
// counters after one advance (advance true).
type diffRecord struct {
	advance  bool
	id       int // At events count up from 0; ticker k fires as -(k+1)
	at       Time
	executed uint64
	pending  int
}

func (r diffRecord) String() string {
	if r.advance {
		return fmt.Sprintf("advance: now %v, executed %d, pending %d", r.at, r.executed, r.pending)
	}
	return fmt.Sprintf("firing id %d at %v", r.id, r.at)
}

// diffWorld runs a program on one clock.
type diffWorld struct {
	t        testing.TB
	c        *Clock
	ch       choices
	stepped  bool // advance by Step, not RunUntil
	log      []diffRecord
	events   []Event // every At handle, by id
	tickers  []*Ticker
	stopped  []bool // Ticker.Stop called
	clockHit bool   // Clock.Stop called during the current advance
	inPlace  int    // ticker firings fired in place (RunUntil clock only)
}

func newDiffWorld(t testing.TB, ch choices, stepped bool) *diffWorld {
	return &diffWorld{t: t, c: NewClock(), ch: ch, stepped: stepped}
}

func (w *diffWorld) period() time.Duration { return diffPeriods[w.ch.intn(len(diffPeriods))] }

func (w *diffWorld) at(due Time) {
	id := len(w.events)
	w.events = append(w.events, w.c.At(due, func() {
		w.log = append(w.log, diffRecord{id: id, at: w.c.Now()})
		w.act(-1)
	}))
}

func (w *diffWorld) newTicker() {
	if len(w.tickers) >= 8 {
		return
	}
	k := len(w.tickers)
	var tk *Ticker
	tk = w.c.NewTicker(w.period(), func() {
		// A queued firing was re-keyed to its due; one fired in place was
		// never queued, so its node still holds the last queued due.
		if tk.ev.n.due != w.c.Now() {
			w.inPlace++
		}
		w.log = append(w.log, diffRecord{id: -(k + 1), at: w.c.Now()})
		w.act(k)
	})
	w.tickers = append(w.tickers, tk)
	w.stopped = append(w.stopped, false)
}

// ticker picks a ticker: self when called from its handler and the choice
// says so, else any.
func (w *diffWorld) ticker(self int) (int, bool) {
	if len(w.tickers) == 0 {
		return 0, false
	}
	if self >= 0 && w.ch.intn(2) == 0 {
		return self, true
	}
	return w.ch.intn(len(w.tickers)), true
}

func (w *diffWorld) cancel() {
	if len(w.events) > 0 {
		w.c.Cancel(w.events[w.ch.intn(len(w.events))])
	}
}

func (w *diffWorld) stopTicker(k int) {
	w.tickers[k].Stop()
	w.stopped[k] = true
}

// act is a handler's action: usually none, so that tickers run in place.
// self is the firing ticker's index, -1 for an At event.
func (w *diffWorld) act(self int) {
	now := w.c.Now()
	switch w.ch.intn(40) {
	case 33:
		w.at(now)
	case 34: // ties with the next firing of a ticker of this period
		p := w.period()
		if self >= 0 {
			p = w.tickers[self].Period()
		}
		w.at(now + p)
	case 35:
		w.cancel()
	case 36:
		if k, ok := w.ticker(self); ok {
			w.stopTicker(k)
		}
	case 37:
		if k, ok := w.ticker(self); ok {
			w.tickers[k].Reset(w.period())
		}
	case 38:
		if k, ok := w.ticker(self); ok {
			w.tickers[k].Reset(w.period())
			w.stopTicker(k)
		}
	case 39:
		w.c.Stop()
		w.clockHit = true
	}
}

// op is one action from outside any handler.
func (w *diffWorld) op() {
	now := w.c.Now()
	switch w.ch.intn(8) {
	case 0, 1:
		switch w.ch.intn(4) {
		case 0:
			w.at(now)
		case 1:
			w.at(now + w.period())
		default:
			w.at(now + Time(w.ch.intn(60))*Time(time.Millisecond))
		}
	case 2, 3:
		w.newTicker()
	case 4: // Stop while a firing is pending in the lane
		if k, ok := w.ticker(-1); ok {
			w.stopTicker(k)
		}
	case 5: // Reset while a firing is pending in the lane
		if k, ok := w.ticker(-1); ok {
			w.tickers[k].Reset(w.period())
		}
	case 6:
		w.cancel()
	}
}

// horizon picks how far to advance: often exactly onto a pending ticker
// firing or At event, or some periods beyond one.
func (w *diffWorld) horizon() Time {
	now := w.c.Now()
	switch w.ch.intn(8) {
	case 0:
		return now
	case 1, 2:
		if k, ok := w.ticker(-1); ok && w.tickers[k].ev.Pending() {
			tk := w.tickers[k]
			return tk.ev.due + Time(w.ch.intn(4))*tk.period
		}
	case 3:
		if len(w.events) > 0 {
			if e := w.events[w.ch.intn(len(w.events))]; e.Pending() {
				return e.Due()
			}
		}
	case 4:
		return now + Time(w.ch.intn(300))*Time(time.Millisecond)
	}
	return now + Time(w.ch.intn(60))*Time(time.Millisecond)
}

// nextDue is the earliest live due, found without reaping anything.
func nextDue(c *Clock) (Time, bool) {
	var due Time
	ok := false
	if len(c.heap.a) > 0 {
		due, ok = c.heap.a[0].due, true
	}
	for i := range c.lanes {
		l := &c.lanes[i]
		for k := 0; k < l.n; k++ {
			n := l.ring[(l.head+k)&(len(l.ring)-1)]
			if n.canceled {
				continue
			}
			if !ok || n.due < due {
				due, ok = n.due, true
			}
			break
		}
	}
	return due, ok
}

// advance moves the clock to horizon. The stepped world fires with Step
// while the next event is due by the horizon and Clock.Stop was not called,
// then leaves the clock where RunUntil documents it.
func (w *diffWorld) advance(horizon Time) {
	w.clockHit = false
	if w.stepped {
		for !w.clockHit {
			due, ok := nextDue(w.c)
			if !ok || due > horizon {
				break
			}
			if !w.c.Step() {
				w.t.Fatal("Step fired nothing with an event due")
			}
		}
		if !w.clockHit && w.c.Now() < horizon {
			w.c.now = horizon
		}
	} else {
		w.c.RunUntil(horizon)
	}
	w.log = append(w.log, diffRecord{advance: true, at: w.c.Now(), executed: w.c.Executed(), pending: w.c.Pending()})
	w.check()
}

// check validates the kernel's structure and the tickers' ownership of
// their nodes: a running ticker holds a pending node in a lane, a stopped
// one holds none, and the free list holds no owned node and no node twice.
// The free list is walked first: a node freed twice makes it a cycle,
// which checkInvariants would walk forever.
func (w *diffWorld) check() {
	free := map[*node]bool{}
	for n := w.c.free; n != nil; n = n.next {
		if free[n] {
			w.t.Fatalf("stepped=%v: a node is on the free list twice", w.stepped)
		}
		free[n] = true
		if n.owned {
			w.t.Fatalf("stepped=%v: an owned node is on the free list", w.stepped)
		}
	}
	if err := checkInvariants(w.c); err != nil {
		w.t.Fatalf("stepped=%v: %v", w.stepped, err)
	}
	for k, tk := range w.tickers {
		n := tk.ev.n
		switch {
		case w.stopped[k] && n != nil:
			w.t.Fatalf("stepped=%v: stopped ticker %d still holds a node", w.stepped, k)
		case !w.stopped[k] && (n == nil || !tk.ev.Pending() || !n.owned || n.index != inLane):
			w.t.Fatalf("stepped=%v: running ticker %d has no pending owned node in a lane", w.stepped, k)
		}
	}
}

// run runs the program for the given number of rounds, each some outside
// operations and one advance, then stops every ticker and drains.
func (w *diffWorld) run(rounds int) {
	for r := 0; r < rounds; r++ {
		for i := 1 + w.ch.intn(4); i > 0; i-- {
			w.op()
		}
		w.check()
		w.advance(w.horizon())
	}
	for k := range w.tickers {
		w.stopTicker(k)
	}
	// A handler may call Clock.Stop, so drain in as many advances as that
	// takes; nothing re-arms, so the queue empties.
	for w.c.Pending() > 0 {
		w.advance(Infinity)
	}
}

// compareRuns runs the program on a stepped and a RunUntil clock, each
// with choices from mk, and returns the in-place firings the RunUntil clock
// made.
func compareRuns(t testing.TB, rounds int, mk func() choices) int {
	ref := newDiffWorld(t, mk(), true)
	got := newDiffWorld(t, mk(), false)
	ref.run(rounds)
	got.run(rounds)
	for i := 0; i < len(ref.log) || i < len(got.log); i++ {
		var want, have diffRecord
		if i < len(ref.log) {
			want = ref.log[i]
		}
		if i < len(got.log) {
			have = got.log[i]
		}
		if i >= len(ref.log) || i >= len(got.log) || want != have {
			t.Fatalf("record %d: RunUntil gave %v, Step gave %v (records %d and %d)",
				i, have, want, len(got.log), len(ref.log))
		}
	}
	return got.inPlace
}

// TestRunUntilMatchesStep holds RunUntil, with its in-place ticker
// firings, to Step on random programs.
func TestRunUntilMatchesStep(t *testing.T) {
	root := rng.New(27).Split("rununtil-step")
	inPlace := 0
	for round := 0; round < 300; round++ {
		name := fmt.Sprintf("round-%d", round)
		inPlace += compareRuns(t, 40, func() choices { return rngChoices{root.Split(name)} })
	}
	if inPlace < 10_000 {
		t.Fatalf("RunUntil fired only %d ticker firings in place, want >= 10000", inPlace)
	}
}

// FuzzRunUntilMatchesStep derives the program of TestRunUntilMatchesStep
// from the fuzzer's bytes: one round per four bytes, at most 64, with every
// choice read from the bytes in turn.
func FuzzRunUntilMatchesStep(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{2, 0, 2, 1, 1, 0, 0})             // one ticker, run on its instants
	f.Add([]byte{2, 3, 2, 4, 1, 1, 0, 0, 0, 1, 0}) // two 10 ms tickers on one lane
	f.Add([]byte{2, 0, 1, 1, 0, 0, 1, 2, 3, 34, 2, 7, 34})
	f.Add([]byte{2, 5, 4, 0, 1, 2, 0, 5, 4, 3, 1, 0, 39, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		rounds := len(data)/4 + 1
		if rounds > 64 {
			rounds = 64
		}
		compareRuns(t, rounds, func() choices { return &byteChoices{b: data} })
	})
}

// TestStepInsideRunUntilFiresOne calls Step from a handler running under
// RunUntil: it fires the ticker's next firing and nothing more, though
// RunUntil would fire that firing's successors in place.
func TestStepInsideRunUntilFiresOne(t *testing.T) {
	c := NewClock()
	ticks := 0
	c.NewTicker(ms(1), func() { ticks++ })
	c.At(2500*Time(time.Microsecond), func() {
		before := c.Executed()
		if !c.Step() {
			t.Fatal("Step fired nothing")
		}
		if got := c.Executed() - before; got != 1 || c.Now() != ms(3) {
			t.Fatalf("Step fired %d events, clock at %v; want 1 and 3ms", got, c.Now())
		}
	})
	c.RunUntil(ms(10))
	if ticks != 10 || c.Executed() != 11 {
		t.Fatalf("%d ticks and %d events by 10ms, want 10 and 11", ticks, c.Executed())
	}
}
