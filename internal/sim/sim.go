// Package sim provides a deterministic discrete-event simulation kernel.
//
// All NoStop experiments run in virtual time: a Clock owns a priority queue
// of timestamped events and advances by executing the earliest event. Events
// scheduled for the same instant execute in FIFO order of scheduling, which
// makes runs fully deterministic for a fixed seed and schedule.
//
// The kernel is intentionally single-threaded: streaming-system dynamics
// (queueing, scheduling delay, reconfiguration) are modelled as events, not
// as goroutines, so that a multi-hour cluster experiment replays in
// milliseconds and every run is exactly reproducible.
//
// Hot-path design (see docs/PERF.md): event nodes are pooled on a free list
// and recycled the moment they fire or are canceled, so steady-state
// scheduling allocates nothing; the priority queue is an indexed 4-ary heap
// (shallower than a binary heap, fewer cache misses per sift); and events
// whose scheduling order is already their firing order bypass the heap
// through FIFO lanes. Lane 0 takes events scheduled for the current
// instant, which makes same-time bursts O(1) per event; every other lane
// takes the firings of the tickers that share one period, so a periodic
// event costs O(1) however deep the heap is. A ticker keeps one node for
// its whole life and re-arms it after each firing instead of returning it
// to the free list; inside RunUntil, a firing whose successor is due before
// anything else pending fires that successor in place, without queueing it.
// Such a run of firings finds the earliest pending due once, and looks again
// only after a handler has scheduled something. A ticker's owner may give it
// a settle function, which ends each run, so per-firing bookkeeping can be
// done once per run. Event handles carry a generation stamp so a handle to a
// recycled node can never cancel a later incarnation.
//
// Handlers schedule and cancel events and stop tickers; they never call
// Step or RunUntil, so a ticker's run of firings ends where its tick
// returns to the clock.
package sim

import (
	"fmt"
	"math"
	"time"
)

// Time is a virtual instant, measured as an offset from the simulation epoch.
type Time = time.Duration

// Infinity is a horizon later than any practical simulation instant.
const Infinity Time = math.MaxInt64

// node is the pooled scheduler entry behind an Event handle. Nodes are
// recycled through the clock's free list; the gen counter advances every
// time an incarnation ends (fires or is canceled), invalidating outstanding
// handles to the previous incarnation. A ticker's node is owned: firing
// ends its incarnation but leaves it with the ticker, which re-arms it.
type node struct {
	due      Time
	seq      uint64
	gen      uint64
	index    int32 // heap index; notQueued / inLane when not in the heap
	canceled bool  // lane-resident incarnation canceled (lazily reaped)
	owned    bool  // held by a Ticker, which re-arms it; off the free list
	fn       func()
	next     *node // free-list link
}

// index sentinels for nodes outside the heap.
const (
	notQueued int32 = -1
	inLane    int32 = -2
)

// Event is a handle to one scheduled callback. It is a small value: copy it
// freely. The zero Event is inert (Cancel is a no-op, Pending reports
// false). Handlers run with the clock set to the event's due time.
type Event struct {
	n   *node
	gen uint64
	due Time
}

// Due reports the virtual time at which the event fires (or fired).
func (e Event) Due() Time { return e.due }

// Pending reports whether the event is still scheduled: it has neither fired
// nor been canceled.
func (e Event) Pending() bool { return e.n != nil && e.n.gen == e.gen }

// heap4 is an indexed 4-ary min-heap of nodes ordered by (due, seq). Each
// node records its own position so Cancel can remove it in O(log₄ n).
type heap4 struct {
	a []*node
}

// eventLess orders nodes by (due, seq): earlier time first, FIFO within an
// instant.
func eventLess(x, y *node) bool {
	if x.due != y.due {
		return x.due < y.due
	}
	return x.seq < y.seq
}

func (h *heap4) len() int { return len(h.a) }

func (h *heap4) push(n *node) {
	n.index = int32(len(h.a))
	h.a = append(h.a, n)
	h.up(len(h.a) - 1)
}

// pop removes and returns the minimum node.
func (h *heap4) pop() *node {
	root := h.a[0]
	last := len(h.a) - 1
	h.a[0] = h.a[last]
	h.a[0].index = 0
	h.a[last] = nil
	h.a = h.a[:last]
	if last > 0 {
		h.down(0)
	}
	root.index = notQueued
	return root
}

// remove deletes the node at index i.
func (h *heap4) remove(i int) {
	last := len(h.a) - 1
	removed := h.a[i]
	if i != last {
		h.a[i] = h.a[last]
		h.a[i].index = int32(i)
	}
	h.a[last] = nil
	h.a = h.a[:last]
	if i < last {
		h.down(i)
		h.up(i)
	}
	removed.index = notQueued
}

func (h *heap4) up(i int) {
	n := h.a[i]
	for i > 0 {
		parent := (i - 1) >> 2
		p := h.a[parent]
		if !eventLess(n, p) {
			break
		}
		h.a[i] = p
		p.index = int32(i)
		i = parent
	}
	h.a[i] = n
	n.index = int32(i)
}

func (h *heap4) down(i int) {
	n := h.a[i]
	size := len(h.a)
	for {
		first := i<<2 + 1
		if first >= size {
			break
		}
		// Pick the smallest of up to four children.
		min := first
		end := first + 4
		if end > size {
			end = size
		}
		for c := first + 1; c < end; c++ {
			if eventLess(h.a[c], h.a[min]) {
				min = c
			}
		}
		if !eventLess(h.a[min], n) {
			break
		}
		h.a[i] = h.a[min]
		h.a[i].index = int32(i)
		i = min
	}
	h.a[i] = n
	n.index = int32(i)
}

// lane is a FIFO ring of nodes whose push order is their (due, seq) order:
// every node pushed is due the same fixed period after the instant it was
// pushed at, the clock only moves forward, and seq grows per schedule. So
// the head is always the lane's minimum and no node is ever sifted. A
// canceled node stays in its slot as a tombstone until it reaches the head.
type lane struct {
	period time.Duration // due minus scheduling instant; 0 for the same-instant lane
	ring   []*node
	head   int
	n      int // occupied slots, tombstones included
}

// push appends a node at the tail, growing the ring if it is full.
func (l *lane) push(n *node) {
	if l.n == len(l.ring) {
		l.grow()
	}
	l.ring[(l.head+l.n)&(len(l.ring)-1)] = n
	l.n++
	n.index = inLane
}

// grow doubles the ring, unwrapping it into index order. Ring sizes are
// powers of two, so positions wrap with a mask.
func (l *lane) grow() {
	size := len(l.ring) * 2
	if size == 0 {
		size = 16
	}
	next := make([]*node, size) //nostop:allow hotalloc -- amortized ring doubling: O(log n) growths per lane, then steady-state 0-alloc
	for i := 0; i < l.n; i++ {
		next[i] = l.ring[(l.head+i)&(len(l.ring)-1)]
	}
	l.ring = next
	l.head = 0
}

// popFront removes and returns the head entry.
func (l *lane) popFront() *node {
	n := l.ring[l.head]
	l.ring[l.head] = nil
	l.head = (l.head + 1) & (len(l.ring) - 1)
	l.n--
	return n
}

// Clock is the discrete-event scheduler. The zero value is not usable; use
// NewClock.
//
// Pending events sit in a 4-ary heap or in a FIFO lane. Lane 0 takes At
// calls due at the current instant. Each other lane belongs to one ticker
// period and takes the firings of every Ticker with that period; NewTicker
// creates a lane the first time it sees a period. Every other At and After
// call goes to the heap. The next event is the least by (due, seq) of the
// heap root and the lane heads, so a step costs O(log₄ heap) plus O(lanes).
// Lanes are never removed, so the lane count is one more than the number of
// distinct ticker periods on the clock: at most four in this repository's
// runs (the same-instant lane, the engine's 100 ms producer tick, and either
// service mode's 1 s and 2 s tickers or the tenant mix's reconcile period).
//
// The clock is driven from outside its handlers: Step fires exactly one
// event, and RunUntil fires events up to a horizon. A handler may schedule
// and cancel events, start tickers and stop them, but it never calls Step
// or RunUntil. RunUntil may fire a ticker's next firing in place, straight
// from the previous one, when nothing pending is due at or before it; Now,
// Executed and Pending read at every point as if the firing had been queued
// and stepped. A ticker's run of firings (one under Step, one or more in
// place under RunUntil) ends with its settle function, if it has one,
// before its tick returns to the clock; see Ticker.SetSettle.
type Clock struct {
	now  Time
	seq  uint64
	heap heap4

	// until is the horizon of the running or last RunUntil. Outside one it
	// is at or before now, so no ticker firing is due within it.
	until Time

	lanes []lane // lanes[0] is the same-instant lane
	tombs int    // canceled nodes still occupying lane slots, over all lanes

	free    *node // recycled nodes
	pending int   // live (scheduled, not canceled) events

	// executed counts events that have fired, for diagnostics and tests.
	executed uint64
}

// NewClock returns a clock at virtual time zero with an empty event queue.
func NewClock() *Clock { return &Clock{lanes: make([]lane, 1, 4)} }

// Now returns the current virtual time.
func (c *Clock) Now() Time { return c.now }

// Pending returns the number of queued (not yet fired, not canceled) events.
func (c *Clock) Pending() int { return c.pending }

// Executed returns the number of events that have fired so far.
func (c *Clock) Executed() uint64 { return c.executed }

// alloc takes a node from the free list (or the heap's allocator).
func (c *Clock) alloc() *node {
	if n := c.free; n != nil {
		c.free = n.next
		n.next = nil
		return n
	}
	return &node{index: notQueued} //nostop:allow hotalloc -- pool miss: one node per high-water mark, then recycled forever
}

// recycle ends a node's current incarnation and returns it to the free
// list.
func (c *Clock) recycle(n *node) {
	n.fn = nil
	n.canceled = false
	n.gen++
	n.index = notQueued
	n.next = c.free
	c.free = n
}

// At schedules fn to run at absolute virtual time t. Scheduling in the past
// panics: it indicates a modelling bug, and silently reordering events would
// corrupt causality.
//
//nostop:hotpath
func (c *Clock) At(t Time, fn func()) Event {
	l := -1 // the heap
	if t == c.now {
		l = 0
	}
	return c.schedule(t, fn, l)
}

// After schedules fn to run d after the current virtual time. Negative d
// panics via At.
//
//nostop:hotpath
func (c *Clock) After(d time.Duration, fn func()) Event {
	return c.At(c.now+d, fn)
}

// schedule queues fn at t in lane l, or in the heap when l is negative.
func (c *Clock) schedule(t Time, fn func(), l int) Event {
	if fn == nil {
		panic("sim: At called with nil handler")
	}
	if t < c.now {
		//nostop:allow hotalloc -- panic path: allocation is irrelevant once causality is broken
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, c.now))
	}
	n := c.alloc()
	n.due = t
	n.seq = c.seq
	n.fn = fn
	c.seq++
	c.pending++
	if l >= 0 {
		c.lanes[l].push(n)
	} else {
		c.heap.push(n)
	}
	return Event{n: n, gen: n.gen, due: t}
}

// laneFor returns the index of the lane for a new ticker's period, adding
// the lane on the period's first use.
func (c *Clock) laneFor(period time.Duration) int {
	for i := 1; i < len(c.lanes); i++ {
		if c.lanes[i].period == period {
			return i
		}
	}
	c.lanes = append(c.lanes, lane{period: period})
	return len(c.lanes) - 1
}

// front returns the first live node of a lane without removing it, reaping
// canceled entries at its head. Returns nil when the lane has none.
func (c *Clock) front(l *lane) *node {
	for l.n > 0 {
		n := l.ring[l.head]
		if !n.canceled {
			return n
		}
		// Reap a lazily-canceled entry: its incarnation already ended (gen
		// bumped in Cancel); now the slot reference dies too, so the node
		// can rejoin the free list. A ticker let go of its node when it
		// canceled the firing, so the node is nobody's now.
		l.popFront()
		c.tombs--
		n.canceled = false
		n.owned = false
		n.index = notQueued
		n.next = c.free
		c.free = n
	}
	return nil
}

// Cancel removes a scheduled event. Canceling an already-fired,
// already-canceled, or zero event is a no-op: the generation stamp in the
// handle detects a node that has moved on to a later incarnation.
//
//nostop:hotpath
func (c *Clock) Cancel(e Event) {
	n := e.n
	if n == nil || n.gen != e.gen {
		return
	}
	c.pending--
	switch {
	case n.index >= 0:
		c.heap.remove(int(n.index))
		c.recycle(n)
	case n.index == inLane:
		// The lane still references the node, so it cannot rejoin the free
		// list yet; mark it for lazy reaping and end the incarnation.
		n.canceled = true
		n.fn = nil
		n.gen++
		c.tombs++
	default:
		// Not queued: already being fired; treat as fired.
		c.pending++
	}
}

// step fires the earliest pending event by (due, seq) — the least of the
// heap root and the lane heads — if it is due no later than horizon, and
// reports whether it fired one.
func (c *Clock) step(horizon Time) bool {
	var n *node
	from := -1 // the heap
	if len(c.heap.a) > 0 {
		n = c.heap.a[0]
	}
	for i := range c.lanes {
		l := &c.lanes[i]
		if l.n == 0 {
			continue
		}
		f := l.ring[l.head]
		if f.canceled {
			if f = c.front(l); f == nil {
				continue
			}
		}
		if n == nil || eventLess(f, n) {
			n, from = f, i
		}
	}
	if n == nil || n.due > horizon {
		return false
	}
	if from < 0 {
		c.heap.pop()
	} else {
		c.lanes[from].popFront()
	}
	c.now = n.due
	c.pending--
	c.executed++
	fn := n.fn
	if n.owned {
		// The firing ends the incarnation; the ticker keeps the node.
		n.gen++
		n.index = notQueued
	} else {
		c.recycle(n)
	}
	fn()
	return true
}

// nextDue returns the due of the earliest pending event, reaping tombstones
// at lane heads, or Infinity when nothing is pending.
func (c *Clock) nextDue() Time {
	due := Infinity
	if len(c.heap.a) > 0 {
		due = c.heap.a[0].due
	}
	for i := range c.lanes {
		l := &c.lanes[i]
		if l.n == 0 {
			continue
		}
		f := l.ring[l.head]
		if f.canceled {
			if f = c.front(l); f == nil {
				continue
			}
		}
		if f.due < due {
			due = f.due
		}
	}
	return due
}

// Step fires the earliest pending event and returns true, or returns false
// if the queue is empty. It fires exactly one event: a ticker's run under
// Step is one firing. Drain a clock with for c.Step() {}.
//
//nostop:hotpath
func (c *Clock) Step() bool { return c.step(Infinity) }

// RunUntil executes events in order until the queue is empty or the next
// event is due strictly after horizon, then moves the clock to the horizon
// if it is short of it, so periodic models can resume cleanly.
//
//nostop:hotpath
func (c *Clock) RunUntil(horizon Time) {
	c.until = horizon
	for c.step(horizon) {
	}
	if c.now < horizon {
		c.now = horizon
	}
}

// Ticker repeatedly schedules a handler at a fixed period until stopped. Its
// firings ride the clock's lane for its period, not the heap. A ticker keeps
// its node from one firing to the next, off the free list: each firing ends
// the node's incarnation (the ticker's event reads not pending while the
// handler runs), and re-arming re-keys the same node and pushes it to its
// lane's tail. Stop while a firing is pending leaves the node in the lane as
// a tombstone, for the clock to reap.
//
// Inside RunUntil the next firing fires in place instead of re-arming, with
// no push or pop, when the handler did not stop the ticker, the firing is
// due within the horizon and every pending event is due strictly after it.
// Such a string of firings is a run; under Step a run is one firing. A run
// finds the earliest pending due once and looks again only after a handler
// has scheduled something, so a cancel inside the run can only make it end
// early, never late.
type Ticker struct {
	clock  *Clock
	period time.Duration
	lane   int // index of the clock's lane for period
	fn     func()
	settle func() // ends each run; nil for none
	tick   func() // allocated once; rescheduling must not allocate per tick
	ev     Event  // the owned node's latest incarnation; ev.n nil once stopped
	stop   bool
}

// NewTicker schedules fn every period, with the first firing one period from
// now. period must be positive.
func (c *Clock) NewTicker(period time.Duration, fn func()) *Ticker {
	if period <= 0 {
		panic("sim: ticker period must be positive")
	}
	t := &Ticker{clock: c, period: period, lane: c.laneFor(period), fn: fn}
	t.tick = func() {
		var next Time     // earliest pending due as of seq seen
		seen := c.seq - 1 // no scan yet: c.seq only grows, so it differs
		for {
			t.fn()
			if t.stop {
				break
			}
			// The next firing fires in place only inside RunUntil, within
			// the horizon and ahead of everything queued. Anything in the
			// ticker's own lane was armed at or before now, so it is due no
			// later than due: tickers that share a lane re-arm without the
			// scan. Only scheduling adds pending events, and every schedule
			// takes a seq, so next is stale only after c.seq moved; a cancel
			// leaves it early, which just ends the run.
			due := c.now + t.period
			if due <= c.until && c.lanes[t.lane].n == 0 {
				if c.seq != seen {
					next, seen = c.nextDue(), c.seq
				}
				if next > due { // on a tie the queued event goes first
					// Fire the next firing now, as a step of the queue would
					// have: it takes the seq arming would have given it.
					c.seq++
					seen = c.seq
					c.now = due
					c.executed++
					continue
				}
			}
			// Settling first keeps the settle next to the run's last
			// firing: the 32-tenant mix, whose runs are one firing each,
			// ran about 6% slower settling after the arm.
			t.end()
			t.arm()
			return
		}
		t.end()
	}
	n := c.alloc()
	n.owned = true
	n.fn = t.tick
	t.ev.n = n
	t.arm()
	return t
}

// end ends the ticker's run with its settle, if it has one.
func (t *Ticker) end() {
	if t.settle != nil {
		t.settle()
	}
}

// SetSettle sets fn to end each of the ticker's runs: it runs once after
// the run's last firing has returned, before the next firing is armed,
// also when the handler stopped the ticker or the horizon ended the run.
// No other handler runs inside a run, so state that the handler only
// accumulates, and fn publishes, reads up to date to every other handler.
// Set it before the first firing, to a fn that only publishes: it must not
// schedule or cancel events, or stop its ticker.
func (t *Ticker) SetSettle(fn func()) { t.settle = fn }

// arm schedules the next firing one period from now on the ticker's node.
func (t *Ticker) arm() {
	c, n := t.clock, t.ev.n
	due := c.now + t.period
	n.due = due
	n.seq = c.seq
	c.seq++
	c.pending++
	c.lanes[t.lane].push(n)
	t.ev.gen, t.ev.due = n.gen, due
}

// Stop cancels future firings. A pending firing's node stays in its lane
// as a tombstone until the clock reaps it; called from the ticker's own
// handler, Stop finds the node out of the queue and returns it to the free
// list.
func (t *Ticker) Stop() {
	t.stop = true
	if t.ev.Pending() {
		t.clock.Cancel(t.ev)
	} else if n := t.ev.n; n != nil {
		n.owned = false
		t.clock.recycle(n)
	}
	t.ev = Event{}
}
