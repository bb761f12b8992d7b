package sim

import (
	"fmt"
	"testing"
	"time"

	"nostop/internal/rng"
)

// Property-based check of the pooled 4-ary heap + FIFO lanes against a
// reference model: a plain sorted-slice priority queue keyed by (due, seq).
// Randomized Schedule/Cancel/Reschedule/Run sequences, with tickers created,
// stopped and replaced among them (also from inside their own handlers),
// must dequeue in exactly the reference order at exactly the reference
// times, including same-instant FIFO bursts and cancel-then-reuse of pooled
// nodes.

// refEntry mirrors one live scheduled event.
type refEntry struct {
	due    Time
	seq    uint64
	id     int
	ticker int // index of the ticker this firing belongs to; -1 for At events
}

// refModel is the executable specification: an unordered slice scanned for
// the (due, seq) minimum. O(n) and allocation-happy — which is fine, it only
// has to be obviously correct. It numbers schedules itself, one seq per
// schedule in call order.
type refModel struct {
	live []refEntry
	seq  uint64
}

func (m *refModel) schedule(due Time, id, ticker int) {
	m.live = append(m.live, refEntry{due: due, seq: m.seq, id: id, ticker: ticker})
	m.seq++
}

func (m *refModel) cancel(id int) bool {
	for i, e := range m.live {
		if e.id == id {
			m.live = append(m.live[:i], m.live[i+1:]...)
			return true
		}
	}
	return false
}

// popMin removes and returns the entry with the least (due, seq).
func (m *refModel) popMin() (refEntry, bool) {
	if len(m.live) == 0 {
		return refEntry{}, false
	}
	min := 0
	for i := 1; i < len(m.live); i++ {
		e, best := m.live[i], m.live[min]
		if e.due < best.due || (e.due == best.due && e.seq < best.seq) {
			min = i
		}
	}
	e := m.live[min]
	m.live = append(m.live[:min], m.live[min+1:]...)
	return e, true
}

// refTicker is the model of one Ticker: after each firing's handler it
// schedules the next firing one period on, unless the handler stopped it.
type refTicker struct {
	tk      *Ticker
	period  time.Duration
	stopped bool
	pending int    // model id of the scheduled firing; -1 when none
	onFire  func() // armed action, run inside the next firing's handler
}

// firing is one handler run as the clock reported it.
type firing struct {
	id, ticker int // event id for At events; ticker index (id -1) for tickers
	at         Time
}

// queueHarness drives a Clock and the reference model in lockstep.
type queueHarness struct {
	t       *testing.T
	c       *Clock
	model   refModel
	handles map[int]Event // every At handle issued: live, fired or canceled
	ids     []int         // ids of every At handle, in creation order
	nextID  int
	tickers []*refTicker
	fired   []firing
}

func newQueueHarness(t *testing.T) *queueHarness {
	return &queueHarness{t: t, c: NewClock(), handles: map[int]Event{}}
}

// schedule registers an event at the given due time in both systems.
func (h *queueHarness) schedule(due Time) {
	id := h.nextID
	h.nextID++
	h.model.schedule(due, id, -1)
	ev := h.c.At(due, func() { h.fired = append(h.fired, firing{id: id, ticker: -1, at: h.c.Now()}) })
	h.handles[id] = ev
	h.ids = append(h.ids, id)
}

// cancel cancels event id through its handle in both systems. A handle whose
// event already fired or was canceled is stale (its node may since have
// been recycled into another event in the heap or a lane): canceling it
// must change nothing.
func (h *queueHarness) cancel(id int) {
	ev := h.handles[id]
	if h.model.cancel(id) {
		h.c.Cancel(ev)
		if ev.Pending() {
			h.t.Fatalf("Cancel of live event %d left it pending", id)
		}
		return
	}
	pending, seq := h.c.Pending(), h.c.seq
	h.c.Cancel(ev)
	if h.c.Pending() != pending || h.c.seq != seq {
		h.t.Fatalf("Cancel of stale handle %d changed Pending %d -> %d, seq %d -> %d",
			id, pending, h.c.Pending(), seq, h.c.seq)
	}
	if err := checkInvariants(h.c); err != nil {
		h.t.Fatalf("after Cancel of stale handle %d: %v", id, err)
	}
}

// scheduleTick enters a ticker's next firing, one period from now, in the
// model only: the clock's Ticker schedules its own.
func (h *queueHarness) scheduleTick(k int) {
	rt := h.tickers[k]
	rt.pending = h.nextID
	h.nextID++
	h.model.schedule(h.c.Now()+rt.period, rt.pending, k)
}

// newTicker starts a ticker in both systems, unless 12 are running.
func (h *queueHarness) newTicker(period time.Duration) {
	running := 0
	for _, rt := range h.tickers {
		if !rt.stopped {
			running++
		}
	}
	if running >= 12 {
		return
	}
	k := len(h.tickers)
	rt := &refTicker{period: period}
	h.tickers = append(h.tickers, rt)
	h.scheduleTick(k)
	rt.tk = h.c.NewTicker(period, func() {
		h.fired = append(h.fired, firing{id: -1, ticker: k, at: h.c.Now()})
		if a := rt.onFire; a != nil {
			rt.onFire = nil
			a()
		}
	})
}

// stopTicker stops ticker k in both systems.
func (h *queueHarness) stopTicker(k int) {
	rt := h.tickers[k]
	rt.stopped = true
	if rt.pending >= 0 {
		h.model.cancel(rt.pending)
		rt.pending = -1
	}
	rt.tk.Stop()
}

// replaceTicker stops ticker k and starts a fresh one on period, as a
// period change is made.
func (h *queueHarness) replaceTicker(k int, period time.Duration) {
	h.stopTicker(k)
	h.newTicker(period)
}

// check compares the clock's counters with the model's and validates the
// kernel's structure.
func (h *queueHarness) check() {
	if h.c.Pending() != len(h.model.live) {
		h.t.Fatalf("Pending() = %d, model has %d live events", h.c.Pending(), len(h.model.live))
	}
	if h.c.seq != h.model.seq {
		h.t.Fatalf("clock assigned %d seqs, model %d", h.c.seq, h.model.seq)
	}
	if err := checkInvariants(h.c); err != nil {
		h.t.Fatal(err)
	}
}

// step fires one event on the clock and checks it against the model's
// minimum, then lets the model's ticker schedule its next firing.
func (h *queueHarness) step() {
	want, ok := h.model.popMin()
	if ok && want.ticker >= 0 {
		h.tickers[want.ticker].pending = -1
	}
	before := len(h.fired)
	stepped := h.c.Step()
	if stepped != ok {
		h.t.Fatalf("Step() = %v, model had %d live events", stepped, len(h.model.live)+1)
	}
	if !ok {
		return
	}
	if len(h.fired) == before {
		h.t.Fatalf("Step fired nothing; model expected id %d at %v", want.id, want.due)
	}
	got := h.fired[before]
	if got.ticker != want.ticker || (want.ticker < 0 && got.id != want.id) {
		h.t.Fatalf("dequeue order diverged: fired (id %d, ticker %d), model wants (id %d, ticker %d) due %v seq %d",
			got.id, got.ticker, want.id, want.ticker, want.due, want.seq)
	}
	if got.at != want.due {
		h.t.Fatalf("event fired at %v, model has it due %v", got.at, want.due)
	}
	if want.ticker >= 0 && !h.tickers[want.ticker].stopped {
		h.scheduleTick(want.ticker)
	}
	h.check()
}

// drain stops every ticker, then runs both queues to empty, comparing every
// dequeue.
func (h *queueHarness) drain() {
	for k := range h.tickers {
		h.stopTicker(k)
	}
	for len(h.model.live) > 0 {
		h.step()
	}
	if h.c.Step() {
		h.t.Fatal("clock still had events after the model drained")
	}
	if h.c.Pending() != 0 {
		h.t.Fatalf("Pending() = %d after drain", h.c.Pending())
	}
	h.check()
}

// tickerPeriods are the periods tickers start with: few enough that tickers
// share lanes, spread enough that several lanes exist.
var tickerPeriods = []time.Duration{ms(1), ms(3), ms(10), ms(10), ms(25)}

// tickerOp applies one ticker operation chosen by a and b: start a ticker,
// stop or replace one, or arm one to act from inside its next handler
// (replace itself, stop itself, replace itself and stop the newest ticker,
// schedule an event now or later, cancel a tracked event).
func (h *queueHarness) tickerOp(a, b int) {
	if len(h.tickers) == 0 || a%4 == 0 {
		h.newTicker(tickerPeriods[b%len(tickerPeriods)])
		return
	}
	k := b % len(h.tickers)
	period := tickerPeriods[(b/len(h.tickers))%len(tickerPeriods)]
	switch a % 4 {
	case 1:
		h.stopTicker(k)
	case 2:
		h.replaceTicker(k, period)
	default:
		var act func()
		switch (b / 7) % 6 {
		case 0:
			act = func() { h.replaceTicker(k, period) }
		case 1:
			act = func() { h.stopTicker(k) }
		case 2:
			act = func() { h.replaceTicker(k, period); h.stopTicker(len(h.tickers) - 1) }
		case 3:
			act = func() { h.schedule(h.c.Now()) }
		case 4:
			act = func() { h.schedule(h.c.Now() + period) }
		default:
			act = func() {
				if len(h.ids) > 0 {
					h.cancel(h.ids[b%len(h.ids)])
				}
			}
		}
		h.tickers[k].onFire = act
	}
}

// TestQueueMatchesReferenceModel generates randomized op sequences — biased
// toward same-instant bursts (due == now) and cancel-then-reuse — and
// requires the kernel to dequeue in exactly the reference (due, seq) order.
// Scheduled-event volume across all rounds exceeds 10k.
func TestQueueMatchesReferenceModel(t *testing.T) {
	root := rng.New(99).Split("queue-property")
	const rounds = 60
	totalScheduled := 0
	for round := 0; round < rounds; round++ {
		r := root.Split(fmt.Sprintf("round-%d", round)).Rand()
		h := newQueueHarness(t)
		ops := 180 + r.Intn(120)
		for op := 0; op < ops; op++ {
			switch k := r.Intn(10); {
			case k < 5: // schedule, often in a same-instant burst
				burst := 1
				if r.Intn(3) == 0 {
					burst = 2 + r.Intn(6)
				}
				for b := 0; b < burst; b++ {
					due := h.c.Now()
					if r.Intn(2) == 0 {
						due += Time(r.Intn(50)) * Time(time.Millisecond)
					}
					h.schedule(due)
					totalScheduled++
				}
			case k < 7: // cancel a random tracked event (possibly already fired)
				if len(h.ids) > 0 {
					h.cancel(h.ids[r.Intn(len(h.ids))])
				}
			case k < 8: // reschedule: cancel + schedule anew, reusing a pooled node
				if len(h.ids) > 0 {
					h.cancel(h.ids[r.Intn(len(h.ids))])
					h.schedule(h.c.Now() + Time(r.Intn(20))*Time(time.Millisecond))
					totalScheduled++
				}
			default: // run a few events
				steps := 1 + r.Intn(4)
				for s := 0; s < steps && len(h.model.live) > 0; s++ {
					h.step()
				}
			}
		}
		h.drain()
	}
	if totalScheduled < 10_000 {
		t.Fatalf("property rounds scheduled only %d events, want >= 10000", totalScheduled)
	}
}

// TestTickersMatchReferenceModel interleaves tickers — several sharing a
// period, several periods, stopped and replaced from outside and from
// inside their own handlers — with same-instant and future At events and
// cancels, and requires the exact reference dequeue order and fire times
// throughout.
func TestTickersMatchReferenceModel(t *testing.T) {
	root := rng.New(7).Split("ticker-property")
	const rounds = 60
	ticks := 0
	for round := 0; round < rounds; round++ {
		r := root.Split(fmt.Sprintf("round-%d", round)).Rand()
		h := newQueueHarness(t)
		ops := 150 + r.Intn(150)
		for op := 0; op < ops; op++ {
			switch k := r.Intn(12); {
			case k < 3: // ticker start, stop, replace or armed action
				h.tickerOp(r.Intn(4), r.Intn(1000))
			case k < 6: // At now or within a few ticker periods
				due := h.c.Now()
				if r.Intn(2) == 0 {
					due += Time(r.Intn(30)) * Time(time.Millisecond)
				}
				h.schedule(due)
			case k < 7:
				if len(h.ids) > 0 {
					h.cancel(h.ids[r.Intn(len(h.ids))])
				}
			default:
				steps := 1 + r.Intn(6)
				for s := 0; s < steps && len(h.model.live) > 0; s++ {
					h.step()
				}
			}
			h.check()
		}
		for _, f := range h.fired {
			if f.ticker >= 0 {
				ticks++
			}
		}
		h.drain()
	}
	if ticks < 2_000 {
		t.Fatalf("property rounds fired only %d ticker events, want >= 2000", ticks)
	}
}

// TestCancelThenReuseHandleIsInert pins the generation-stamp semantics: a
// handle to a node that has been recycled into a new schedule must neither
// cancel nor observe the new incarnation.
func TestCancelThenReuseHandleIsInert(t *testing.T) {
	c := NewClock()
	stale := c.At(ms(5), func() { t.Fatal("canceled event fired") })
	c.Cancel(stale)
	// The freed node is recycled for the next schedule.
	fired := false
	fresh := c.At(ms(7), func() { fired = true })
	if fresh.n != stale.n {
		t.Fatal("the canceled node was not reused")
	}
	if stale.Pending() || !fresh.Pending() {
		t.Fatalf("after reuse: stale pending %v, fresh pending %v", stale.Pending(), fresh.Pending())
	}
	c.Cancel(stale) // must be a no-op against the new incarnation
	if !fresh.Pending() || c.Pending() != 1 {
		t.Fatalf("a stale handle's Cancel reached the new incarnation: %d pending", c.Pending())
	}
	for c.Step() {
	}
	if !fired {
		t.Fatal("live event was killed by a stale handle's Cancel")
	}
	if fresh.Pending() {
		t.Error("fired event reports Pending")
	}
}

// TestFIFOCancelMidBurst cancels from the middle of a same-instant burst;
// the ring must skip the tombstone without disturbing FIFO order.
func TestFIFOCancelMidBurst(t *testing.T) {
	c := NewClock()
	var got []int
	var evs []Event
	for i := 0; i < 8; i++ {
		i := i
		evs = append(evs, c.At(c.Now(), func() { got = append(got, i) }))
	}
	c.Cancel(evs[0])
	c.Cancel(evs[3])
	c.Cancel(evs[7])
	for c.Step() {
	}
	want := []int{1, 2, 4, 5, 6}
	if len(got) != len(want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fired %v, want %v", got, want)
		}
	}
}
