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
// scheduled for the current instant bypass the heap entirely through a FIFO
// ring, which makes same-time bursts O(1) per event. Event handles carry a
// generation stamp so a handle to a recycled node can never cancel a later
// incarnation.
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
// handles to the previous incarnation.
type node struct {
	due      Time
	seq      uint64
	gen      uint64
	index    int32 // heap index; notQueued / inFIFO when not in the heap
	canceled bool  // FIFO-resident incarnation canceled (lazily reaped)
	lastEnd  bool  // how the previous incarnation ended: true = canceled
	fn       func()
	next     *node // free-list link
}

// index sentinels for nodes outside the heap.
const (
	notQueued int32 = -1
	inFIFO    int32 = -2
)

// Event is a handle to one scheduled callback. It is a small value: copy it
// freely. The zero Event is inert (Cancel is a no-op, Canceled reports
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

// Canceled reports whether Cancel was called before the event fired. The
// answer is tracked until the underlying pooled node is recycled into a new
// schedule; a handle retained across later reschedules of the same slot
// reports false.
func (e Event) Canceled() bool {
	if e.n == nil || e.n.gen == e.gen {
		return false // zero handle, or still pending
	}
	if e.n.gen == e.gen+1 {
		return e.n.lastEnd
	}
	return false
}

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

// Clock is the discrete-event scheduler. The zero value is not usable; use
// NewClock.
type Clock struct {
	now     Time
	seq     uint64
	heap    heap4
	stopped bool

	// fifo is the same-instant fast path: events scheduled for exactly the
	// current time bypass the heap and append here. FIFO entries are in
	// (due, seq) order by construction — due values never decrease (the
	// clock only moves forward) and seq increases per schedule — so the
	// ring head is always the FIFO minimum. Canceled entries are reaped
	// lazily at the head.
	fifo       []*node
	fifoHead   int
	fifoLen    int
	fifoCancel int // canceled entries still occupying ring slots

	free    *node // recycled nodes
	pending int   // live (scheduled, not canceled) events

	// executed counts events that have fired, for diagnostics and tests.
	executed uint64
}

// NewClock returns a clock at virtual time zero with an empty event queue.
func NewClock() *Clock { return &Clock{} }

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
// list. endedCanceled records how it ended for Event.Canceled.
func (c *Clock) recycle(n *node, endedCanceled bool) {
	n.fn = nil
	n.canceled = false
	n.lastEnd = endedCanceled
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
	if t == c.now {
		c.fifoPush(n)
	} else {
		c.heap.push(n)
	}
	return Event{n: n, gen: n.gen, due: t}
}

// After schedules fn to run d after the current virtual time. Negative d
// panics via At.
//
//nostop:hotpath
func (c *Clock) After(d time.Duration, fn func()) Event {
	return c.At(c.now+d, fn)
}

// fifoPush appends a node to the same-instant ring, growing it if full.
func (c *Clock) fifoPush(n *node) {
	if c.fifoLen == len(c.fifo) {
		c.fifoGrow()
	}
	tail := c.fifoHead + c.fifoLen
	if tail >= len(c.fifo) {
		tail -= len(c.fifo)
	}
	c.fifo[tail] = n
	c.fifoLen++
	n.index = inFIFO
}

// fifoGrow doubles the ring, unwrapping it into index order.
func (c *Clock) fifoGrow() {
	size := len(c.fifo) * 2
	if size == 0 {
		size = 16
	}
	next := make([]*node, size) //nostop:allow hotalloc -- amortized ring doubling: O(log n) growths per run, then steady-state 0-alloc
	for i := 0; i < c.fifoLen; i++ {
		next[i] = c.fifo[(c.fifoHead+i)%len(c.fifo)]
	}
	c.fifo = next
	c.fifoHead = 0
}

// fifoFront returns the first live FIFO node without removing it, reaping
// canceled entries at the head. Returns nil when the ring is empty.
func (c *Clock) fifoFront() *node {
	for c.fifoLen > 0 {
		n := c.fifo[c.fifoHead]
		if !n.canceled {
			return n
		}
		// Reap a lazily-canceled entry: its incarnation already ended (gen
		// bumped in Cancel); now the slot reference dies too, so the node
		// can rejoin the free list.
		c.fifoPopFront()
		c.fifoCancel--
		n.canceled = false
		n.index = notQueued
		n.next = c.free
		c.free = n
	}
	return nil
}

// fifoPopFront removes the head entry.
func (c *Clock) fifoPopFront() *node {
	n := c.fifo[c.fifoHead]
	c.fifo[c.fifoHead] = nil
	c.fifoHead++
	if c.fifoHead == len(c.fifo) {
		c.fifoHead = 0
	}
	c.fifoLen--
	return n
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
		c.recycle(n, true)
	case n.index == inFIFO:
		// The ring still references the node, so it cannot rejoin the free
		// list yet; mark it for lazy reaping and end the incarnation.
		n.canceled = true
		n.fn = nil
		n.lastEnd = true
		n.gen++
		c.fifoCancel++
	default:
		// Not queued: already being fired; treat as fired.
		c.pending++
	}
}

// Stop makes the currently running Run/RunUntil return after the in-flight
// event handler completes. Pending events stay queued.
func (c *Clock) Stop() { c.stopped = true }

// next pops the earliest pending event, comparing the FIFO head against the
// heap root by (due, seq). Returns nil when nothing is queued.
func (c *Clock) next() *node {
	f := c.fifoFront()
	if c.heap.len() == 0 {
		if f == nil {
			return nil
		}
		return c.fifoPopFront()
	}
	h := c.heap.a[0]
	if f != nil && eventLess(f, h) {
		return c.fifoPopFront()
	}
	return c.heap.pop()
}

// peek returns the earliest pending event without removing it (nil when the
// queue is empty).
func (c *Clock) peek() *node {
	f := c.fifoFront()
	if c.heap.len() == 0 {
		return f
	}
	h := c.heap.a[0]
	if f != nil && eventLess(f, h) {
		return f
	}
	return h
}

// Step fires the earliest pending event and returns true, or returns false
// if the queue is empty.
//
//nostop:hotpath
func (c *Clock) Step() bool {
	n := c.next()
	if n == nil {
		return false
	}
	c.now = n.due
	c.pending--
	c.executed++
	fn := n.fn
	c.recycle(n, false)
	fn()
	return true
}

// RunUntil executes events in order until the queue is empty, Stop is
// called, or the next event is due strictly after horizon. The clock is left
// at min(horizon, time of last executed event); if the queue drains early the
// clock advances to the horizon so periodic models can resume cleanly.
//
//nostop:hotpath
func (c *Clock) RunUntil(horizon Time) {
	c.stopped = false
	for !c.stopped {
		next := c.peek()
		if next == nil || next.due > horizon {
			break
		}
		c.Step()
	}
	if c.now < horizon && !c.stopped {
		c.now = horizon
	}
}

// Run executes events until the queue drains or Stop is called.
//
//nostop:hotpath
func (c *Clock) Run() {
	c.stopped = false
	for !c.stopped && c.Step() {
	}
}

// Ticker repeatedly schedules a handler at a fixed period until stopped.
type Ticker struct {
	clock  *Clock
	period time.Duration
	fn     func()
	tick   func() // allocated once; rescheduling must not allocate per tick
	ev     Event
	stop   bool
}

// NewTicker schedules fn every period, with the first firing one period from
// now. period must be positive.
func (c *Clock) NewTicker(period time.Duration, fn func()) *Ticker {
	if period <= 0 {
		panic("sim: ticker period must be positive")
	}
	t := &Ticker{clock: c, period: period, fn: fn}
	t.tick = func() {
		if t.stop {
			return
		}
		t.fn()
		if !t.stop {
			t.schedule()
		}
	}
	t.schedule()
	return t
}

func (t *Ticker) schedule() {
	t.ev = t.clock.After(t.period, t.tick)
}

// Reset changes the ticker period; the next firing is one new period from
// the current time.
func (t *Ticker) Reset(period time.Duration) {
	if period <= 0 {
		panic("sim: ticker period must be positive")
	}
	t.clock.Cancel(t.ev)
	t.period = period
	if !t.stop {
		t.schedule()
	}
}

// Period returns the current period.
func (t *Ticker) Period() time.Duration { return t.period }

// Stop cancels future firings.
func (t *Ticker) Stop() {
	t.stop = true
	t.clock.Cancel(t.ev)
}
