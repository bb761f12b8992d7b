package sim

import (
	"fmt"
	"testing"
	"time"
)

// checkInvariants validates the kernel's internal structure: the 4-ary heap
// property, index back-pointers, each lane's (due, seq) order and period,
// the lane-resident sentinel, the tombstone count over all lanes, the live
// counter, and the no-canceled-nodes-in-heap rule.
func checkInvariants(c *Clock) error {
	for i, n := range c.heap.a {
		if n.index != int32(i) {
			return fmt.Errorf("heap[%d] has index %d", i, n.index)
		}
		if n.canceled {
			return fmt.Errorf("heap[%d] is canceled (heap must remove eagerly)", i)
		}
		if n.fn == nil {
			return fmt.Errorf("heap[%d] has nil fn", i)
		}
		if i > 0 {
			parent := c.heap.a[(i-1)>>2]
			if eventLess(n, parent) {
				return fmt.Errorf("heap property violated at %d: (%v,%d) < parent (%v,%d)",
					i, n.due, n.seq, parent.due, parent.seq)
			}
		}
	}
	if len(c.lanes) == 0 || c.lanes[0].period != 0 {
		return fmt.Errorf("lane 0 missing or not the same-instant lane")
	}
	live := len(c.heap.a)
	canceled := 0
	periods := map[time.Duration]bool{}
	for li := range c.lanes {
		l := &c.lanes[li]
		if periods[l.period] {
			return fmt.Errorf("two lanes share period %v", l.period)
		}
		periods[l.period] = true
		if l.n > len(l.ring) {
			return fmt.Errorf("lane %d holds %d nodes in a ring of %d", li, l.n, len(l.ring))
		}
		var prev *node
		for i := 0; i < len(l.ring); i++ {
			n := l.ring[(l.head+i)%len(l.ring)]
			if i >= l.n {
				if n != nil {
					return fmt.Errorf("lane %d slot %d outside the live window is not nil", li, i)
				}
				continue
			}
			if n == nil {
				return fmt.Errorf("lane %d slot %d is nil inside the live window", li, i)
			}
			if n.index != inLane {
				return fmt.Errorf("lane %d node %d has index %d, want inLane", li, i, n.index)
			}
			if prev != nil && !eventLess(prev, n) {
				return fmt.Errorf("lane %d not (due,seq)-sorted at %d", li, i)
			}
			if n.canceled {
				canceled++
			} else {
				live++
				if n.fn == nil {
					return fmt.Errorf("lane %d node %d is live with nil fn", li, i)
				}
			}
			prev = n
		}
	}
	if canceled != c.tombs {
		return fmt.Errorf("tombs = %d, counted %d tombstones", c.tombs, canceled)
	}
	if live != c.pending {
		return fmt.Errorf("pending = %d, counted %d live nodes", c.pending, live)
	}
	for n := c.free; n != nil; n = n.next {
		if n.index != notQueued || n.canceled {
			return fmt.Errorf("free node has index %d, canceled %v", n.index, n.canceled)
		}
	}
	return nil
}

// FuzzEventQueue derives an op sequence from the fuzzer's byte string —
// schedule (same-instant or up to 63 ms ahead), cancel (live, double and
// stale cancels), step, and ticker start, stop, replace (a stop plus a
// fresh ticker on the new period) and in-handler actions — and drives the
// kernel and the reference model of
// property_test.go in lockstep: the structural invariants hold after every
// operation, a stale handle's Cancel changes nothing, and every dequeue
// matches the model's (due, seq) order and fire time, through to the final
// drain.
//
// Each byte is one op: b%8 picks it and b>>3 is its argument.
func FuzzEventQueue(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0})                              // same-instant burst
	f.Add([]byte{8, 16, 24, 3, 3, 10})                     // interleaved schedule/cancel
	f.Add([]byte{0, 0, 2, 3, 8, 8, 10, 3, 16, 16})         // mixed schedule, cancel, step
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9})            // every op once
	f.Add([]byte{251, 250, 249, 0, 1, 128, 64})            // far-future dues
	f.Add([]byte{2, 2, 2, 0, 0, 0, 3, 3, 3, 0, 0})         // cancel-heavy then burst
	f.Add([]byte{0, 8, 2, 2, 3, 3, 0, 0, 2, 10, 3, 3, 18}) // double and stale cancels
	f.Add([]byte{4, 12, 20, 3, 3, 3, 3, 3, 3, 3})          // tickers sharing lanes
	f.Add([]byte{4, 7, 3, 3, 15, 3, 3, 6, 3, 5, 3})        // armed replace, replace, stop
	f.Add([]byte{4, 0, 8, 39, 3, 3, 3, 2, 3, 3, 14})       // ticker among bursts
	f.Fuzz(func(t *testing.T, data []byte) {
		h := newQueueHarness(t)
		for _, b := range data {
			switch arg := int(b >> 3); b % 8 {
			case 0, 1: // schedule 0-31 ms (0) or 32-63 ms (1) ahead; 0 ms exercises the same-instant lane
				offset := arg + 32*int(b%8)
				h.schedule(h.c.Now() + Time(offset)*Time(time.Millisecond))
			case 2: // cancel an arbitrary handle (live, fired, or already canceled)
				if len(h.ids) > 0 {
					h.cancel(h.ids[arg%len(h.ids)])
				}
			case 3: // fire the earliest event
				if len(h.model.live) > 0 {
					h.step()
				}
			default: // ticker start (4), stop (5), replace (6), armed action (7)
				h.tickerOp(int(b%8)-4, arg)
			}
			h.check()
		}
		h.drain()
	})
}
