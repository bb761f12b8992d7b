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
// firings or land on the horizon, cancels (of the earliest pending event
// too, which leaves a run's scanned bound early), outside and in-handler
// Stop, tickers started and replaced from handlers, and horizons that land
// exactly on firing instants. Most tickers have a settle; on each clock
// every run of a ticker's firings must be settled exactly once, before any
// other handler starts and before Step or RunUntil returns.

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
	settled  []bool // the ticker has a settle
	inPlace  int    // ticker firings fired in place (RunUntil clock only)
	until    Time   // horizon of the current advance
	draining bool   // every ticker stopped: handlers start no more

	// The run owing a settle: its ticker (-1 for none), and Now and
	// Executed at its last firing.
	owed     int
	owedAt   Time
	owedExec uint64

	settles int            // settles called
	exits   map[string]int // how the settled runs ended
	acts    map[string]int // coverage of the handler actions below
}

func newDiffWorld(t testing.TB, ch choices, stepped bool) *diffWorld {
	return &diffWorld{t: t, c: NewClock(), ch: ch, stepped: stepped, owed: -1,
		exits: map[string]int{}, acts: map[string]int{}}
}

// fired records a handler's start. No run may owe a settle then, except the
// ticker's own when the firing continues its run in place.
func (w *diffWorld) fired(id int, continues bool) {
	if w.owed >= 0 && !(continues && w.owed == -(id+1)) {
		w.t.Fatalf("stepped=%v: id %d fired at %v before ticker %d's run was settled",
			w.stepped, id, w.c.Now(), w.owed)
	}
	if continues && w.owed < 0 && w.settled[-(id+1)] {
		w.t.Fatalf("stepped=%v: ticker %d fired in place at %v after its run was settled",
			w.stepped, -(id + 1), w.c.Now())
	}
	w.log = append(w.log, diffRecord{id: id, at: w.c.Now()})
}

// open starts or continues a run that owes ticker k's settle.
func (w *diffWorld) open(k int) {
	if !w.settled[k] {
		return
	}
	if w.owed >= 0 && w.owed != k {
		w.t.Fatalf("stepped=%v: ticker %d's run opened with ticker %d's unsettled", w.stepped, k, w.owed)
	}
	w.owed, w.owedAt, w.owedExec = k, w.c.Now(), w.c.Executed()
}

// settle is ticker k's settle: it checks that it ends a run of k's that
// nothing has fired into since, and classifies how the run ended.
func (w *diffWorld) settle(k int) {
	now, exec := w.c.Now(), w.c.Executed()
	w.settles++
	if w.owed != k {
		w.t.Fatalf("stepped=%v: ticker %d settled at %v with no run of its own open (owed %d)",
			w.stepped, k, now, w.owed)
	}
	if now != w.owedAt || exec != w.owedExec {
		w.t.Fatalf("stepped=%v: ticker %d settled at %v after %d events, its run ended at %v after %d",
			w.stepped, k, now, exec, w.owedAt, w.owedExec)
	}
	tk := w.tickers[k]
	switch {
	case tk.stop:
		w.exits["stop"]++
	case now+tk.period > w.until:
		w.exits["horizon"]++
	default:
		w.exits["re-arm"]++
	}
	w.owed = -1
}

// unsettled fails when a run owes a settle where none may: after Step or
// RunUntil returned.
func (w *diffWorld) unsettled(where string) {
	if w.owed >= 0 {
		w.t.Fatalf("stepped=%v: %s with ticker %d's run unsettled", w.stepped, where, w.owed)
	}
}

func (w *diffWorld) period() time.Duration { return diffPeriods[w.ch.intn(len(diffPeriods))] }

func (w *diffWorld) at(due Time) {
	id := len(w.events)
	w.events = append(w.events, w.c.At(due, func() {
		w.fired(id, false)
		w.act(-1)
	}))
}

// newTicker starts a ticker, three in four with a settle, unless eight
// are running or the program is draining.
func (w *diffWorld) newTicker() {
	running := 0
	for _, stopped := range w.stopped {
		if !stopped {
			running++
		}
	}
	if running >= 8 || w.draining {
		return
	}
	k := len(w.tickers)
	var tk *Ticker
	tk = w.c.NewTicker(w.period(), func() {
		// A queued firing was re-keyed to its due; one fired in place was
		// never queued, so its node still holds the last queued due.
		inPlace := tk.ev.n.due != w.c.Now()
		if inPlace {
			w.inPlace++
		}
		w.fired(-(k + 1), inPlace)
		w.open(k)
		w.act(k)
	})
	settled := w.ch.intn(4) != 0
	if settled {
		tk.SetSettle(func() { w.settle(k) })
	}
	w.tickers = append(w.tickers, tk)
	w.stopped = append(w.stopped, false)
	w.settled = append(w.settled, settled)
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

// replaceTicker stops ticker k and starts a fresh one on a new period, as
// a period change is made.
func (w *diffWorld) replaceTicker(k int) {
	w.stopTicker(k)
	w.newTicker()
}

// cancelEarliest cancels the earliest pending event by (due, seq), an At
// event or a ticker's firing (by stopping the ticker), and schedules
// nothing. Inside a run of in-place firings that leaves the run's scanned
// bound early, so the run must fall back to the queue.
func (w *diffWorld) cancelEarliest() {
	var first *node
	if len(w.c.heap.a) > 0 {
		first = w.c.heap.a[0]
	}
	for i := range w.c.lanes {
		l := &w.c.lanes[i]
		for k := 0; k < l.n; k++ {
			n := l.ring[(l.head+k)&(len(l.ring)-1)]
			if n.canceled {
				continue
			}
			if first == nil || eventLess(n, first) {
				first = n
			}
			break
		}
	}
	for _, e := range w.events {
		if e.n == first && e.Pending() {
			w.c.Cancel(e)
			return
		}
	}
	for k, tk := range w.tickers {
		if tk.ev.n == first && tk.ev.Pending() {
			w.stopTicker(k)
			return
		}
	}
}

// act is a handler's action: usually none, so that tickers run in place.
// self is the firing ticker's index, -1 for an At event.
func (w *diffWorld) act(self int) {
	now := w.c.Now()
	from := "at"
	if self >= 0 {
		from = "ticker"
	}
	switch w.ch.intn(42) {
	case 33:
		w.at(now)
	case 34: // ties with the next firing of a ticker
		if self >= 0 { // this one's, which would fire in place
			w.at(now + w.tickers[self].period)
		} else if k, ok := w.ticker(-1); ok && w.tickers[k].ev.Pending() {
			w.at(w.tickers[k].ev.Due()) // a queued one's
		} else {
			w.at(now + w.period())
		}
		w.acts["tie from "+from]++
	case 35:
		w.cancel()
	case 36:
		if k, ok := w.ticker(self); ok {
			w.stopTicker(k)
		}
	case 37:
		if k, ok := w.ticker(self); ok {
			w.replaceTicker(k)
		}
	case 38: // replace, then stop the newest ticker: the replacement if one started
		if k, ok := w.ticker(self); ok {
			w.replaceTicker(k)
			w.stopTicker(len(w.tickers) - 1)
		}
	case 39: // on the horizon, where a run of in-place firings must stop
		if w.until != Infinity {
			w.at(w.until)
			w.acts["at horizon from "+from]++
		}
	case 40:
		w.cancelEarliest()
		w.acts["cancel earliest from "+from]++
	case 41:
		w.newTicker()
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
	case 5: // replace while a firing is pending in the lane
		if k, ok := w.ticker(-1); ok {
			w.replaceTicker(k)
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

// liveDue is the earliest live due, found without reaping anything.
func liveDue(c *Clock) (Time, bool) {
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
// while the next event is due by the horizon, then leaves the clock where
// RunUntil documents it.
func (w *diffWorld) advance(horizon Time) {
	w.until = horizon
	if w.stepped {
		for {
			due, ok := liveDue(w.c)
			if !ok || due > horizon {
				break
			}
			if !w.c.Step() {
				w.t.Fatal("Step fired nothing with an event due")
			}
			w.unsettled("Step returned")
		}
		if w.c.Now() < horizon {
			w.c.now = horizon
		}
	} else {
		w.c.RunUntil(horizon)
		w.unsettled("RunUntil returned")
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
// operations and one advance, then stops every ticker and drains: nothing
// re-arms then, so the queue empties.
func (w *diffWorld) run(rounds int) {
	for r := 0; r < rounds; r++ {
		for i := 1 + w.ch.intn(4); i > 0; i-- {
			w.op()
		}
		w.check()
		w.advance(w.horizon())
	}
	w.draining = true
	for k := range w.tickers {
		w.stopTicker(k)
	}
	w.advance(Infinity)
	if w.c.Pending() != 0 {
		w.t.Fatalf("stepped=%v: %d events pending after the drain", w.stepped, w.c.Pending())
	}
}

// compareRuns runs the program on a stepped and a RunUntil clock, each
// with choices from mk, and returns the RunUntil clock's world.
func compareRuns(t testing.TB, rounds int, mk func() choices) *diffWorld {
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
	return got
}

// TestRunUntilMatchesStep holds RunUntil, with its in-place ticker
// firings, to Step on random programs, and requires the RunUntil clock's
// runs to have ended in each way a run can end.
func TestRunUntilMatchesStep(t *testing.T) {
	root := rng.New(27).Split("rununtil-step")
	inPlace, settles := 0, 0
	exits, acts := map[string]int{}, map[string]int{}
	for round := 0; round < 300; round++ {
		name := fmt.Sprintf("round-%d", round)
		w := compareRuns(t, 40, func() choices { return rngChoices{root.Split(name)} })
		inPlace += w.inPlace
		settles += w.settles
		for k, v := range w.exits {
			exits[k] += v
		}
		for k, v := range w.acts {
			acts[k] += v
		}
	}
	if inPlace < 10_000 {
		t.Fatalf("RunUntil fired only %d ticker firings in place, want >= 10000", inPlace)
	}
	for _, k := range []string{"re-arm", "stop", "horizon"} {
		if exits[k] < 20 {
			t.Errorf("only %d runs ended by %s, want >= 20 (all: %v)", exits[k], k, exits)
		}
	}
	for _, k := range []string{"tie from at", "tie from ticker", "at horizon from at",
		"at horizon from ticker", "cancel earliest from at", "cancel earliest from ticker"} {
		if acts[k] < 100 {
			t.Errorf("only %d handlers did %q, want >= 100", acts[k], k)
		}
	}
	t.Logf("%d settles; in place %d; exits %v", settles, inPlace, exits)
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
