package broker

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"nostop/internal/rng"
	"nostop/internal/sim"
)

// The lazy broker keeps SendCount's round-robin spread as a pending window
// on the topic. These tests drive it in lockstep with a reference broker
// whose producers use eagerSendCount and eagerSend, copies of the
// per-partition loop the window replaced, and compare everything a caller
// can observe after every operation.

// eagerSendCount is SendCount as a loop over every partition.
func eagerSendCount(p *Producer, n int64) {
	if n <= 0 {
		return
	}
	parts := int64(len(p.topic.Partitions))
	base := n / parts
	rem := n % parts
	for i := int64(0); i < parts; i++ {
		idx := (int64(p.next) + i) % parts
		cnt := base
		if i < rem {
			cnt++
		}
		eagerAppend(p.topic.Partitions[idx], cnt)
	}
	p.next = int((int64(p.next) + rem) % parts)
}

// eagerSend is Send appending straight to the cursor's partition.
func eagerSend(p *Producer, key, value string, t sim.Time) Record {
	part := p.topic.Partitions[p.next]
	p.next = (p.next + 1) % len(p.topic.Partitions)
	rec := Record{Partition: part.ID, Offset: part.end, Key: key, Value: value, Time: t}
	eagerAppend(part, 1)
	part.retain(rec)
	return rec
}

func eagerAppend(part *Partition, n int64) {
	part.end += n
	t := part.top
	t.totalEnd += n
	if t.acct != nil {
		t.acct.Produced += n
	}
	if t.obs != nil && n > 0 {
		t.obs.OnAppend(t.Name, n)
	}
}

// appendSums is an Observer that sums OnAppend per topic, in int64 and in
// float64 as the metrics counter does.
type appendSums struct {
	n map[string]int64
	f map[string]float64
}

func (a *appendSums) OnAppend(topic string, n int64) {
	a.n[topic] += n
	a.f[topic] += float64(n)
}
func (a *appendSums) OnFetch(string, int64, []OffsetRange)  {}
func (a *appendSums) OnCommit(string, int64, []OffsetRange) {}
func (a *appendSums) OnRewind(string, int, int64)           {}
func (a *appendSums) OnOutage(string, int, bool)            {}

// held is a fetch not yet committed: its ranges, and its chunk unless the
// fetch released it at once.
type held struct {
	topic  int
	ranges []OffsetRange
	chunk  *Chunk
}

// lockstepSide is one broker of the pair: three topics (a plain one and two
// that share a tenant), two producers and one consumer group per topic.
type lockstepSide struct {
	bus    *Bus
	topics []*Topic
	prods  [][2]*Producer
	groups []*ConsumerGroup
	held   []held
	obs    *appendSums
}

func newLockstepSide(t testing.TB, parts [3]int, sampleCap int) *lockstepSide {
	bus, err := NewBus([]int{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	s := &lockstepSide{bus: bus, obs: &appendSums{n: map[string]int64{}, f: map[string]float64{}}}
	for i, name := range []string{"plain", "clicks", "logs"} {
		var tp *Topic
		if i == 0 {
			tp, err = bus.CreateTopic(name, parts[i], sampleCap)
		} else {
			tp, err = bus.CreateTenantTopic(name, "acme", parts[i], sampleCap)
		}
		if err != nil {
			t.Fatal(err)
		}
		tp.SetObserver(s.obs)
		var pp [2]*Producer
		for k := range pp {
			if pp[k], err = bus.NewProducer(name); err != nil {
				t.Fatal(err)
			}
		}
		g, err := bus.NewConsumerGroup(name)
		if err != nil {
			t.Fatal(err)
		}
		s.topics = append(s.topics, tp)
		s.prods = append(s.prods, pp)
		s.groups = append(s.groups, g)
	}
	return s
}

// opReader hands out the operation bytes, then zeros once they run out.
type opReader struct {
	b []byte
	i int
}

func (r *opReader) next() int {
	if r.i >= len(r.b) {
		return 0
	}
	r.i++
	return int(r.b[r.i-1])
}

// sendSize picks a SendCount size: non-positive, fewer than the partition
// count, a byte's worth, or far more than the partition count.
func (r *opReader) sendSize(parts int) int64 {
	switch r.next() % 4 {
	case 0:
		return -int64(r.next() % 3)
	case 1:
		return int64(r.next() % parts)
	case 2:
		return int64(r.next())
	default:
		return int64(r.next())*int64(r.next())*int64(1+r.next()%40) + int64(r.next())
	}
}

// runLockstep applies the operations encoded in ops to a lazy broker and an
// eager one and fails at the first observable difference.
func runLockstep(t testing.TB, ops []byte) {
	r := &opReader{b: ops}
	parts := [3]int{1 + r.next()%9, 1 + r.next()%12, 1 + r.next()%5}
	sampleCap := r.next() % 4
	lazy, ref := newLockstepSide(t, parts, sampleCap), newLockstepSide(t, parts, sampleCap)
	for step := 0; r.i < len(r.b); step++ {
		ti := r.next() % 3
		np := parts[ti]
		var op string
		var got, want any
		switch code := r.next() % 10; code {
		case 0, 1, 2:
			k, n := r.next()%2, r.sendSize(np)
			op = fmt.Sprintf("producer %d SendCount(%d)", k, n)
			lazy.prods[ti][k].SendCount(n)
			eagerSendCount(ref.prods[ti][k], n)
		case 3:
			k := r.next() % 2
			op = fmt.Sprintf("producer %d Send", k)
			v := fmt.Sprintf("v%d", step)
			got = lazy.prods[ti][k].Send("k", v, sim.Time(step))
			want = eagerSend(ref.prods[ti][k], "k", v, sim.Time(step))
		case 4:
			j, down := r.next()%np, r.next()%2 == 0
			op = fmt.Sprintf("SetDown(%d, %v)", j, down)
			lazy.topics[ti].Partitions[j].SetDown(down)
			ref.topics[ti].Partitions[j].SetDown(down)
		case 5:
			max := int64(r.next()%3) * int64(r.next())
			op = fmt.Sprintf("FetchChunk(%d), released at once", max)
			got, want = lazy.fetchReleased(ti, max), ref.fetchReleased(ti, max)
		case 6:
			max := int64(r.next()%3) * int64(r.next())
			op = fmt.Sprintf("FetchChunk(%d)", max)
			got, want = lazy.fetchChunk(ti, max), ref.fetchChunk(ti, max)
		case 7:
			h := r.next()
			op = fmt.Sprintf("commit held %d", h)
			lazy.commitHeld(h)
			ref.commitHeld(h)
		case 8:
			j := r.next() % np
			op = fmt.Sprintf("Rewind(%d)", j)
			got, want = lazy.groups[ti].Rewind(j), ref.groups[ti].Rewind(j)
		case 9:
			max := int64(r.next()%3) * int64(r.next())
			op = fmt.Sprintf("poll(%d)", max)
			ln, lrecs := poll(lazy.groups[ti], max)
			rn, rrecs := poll(ref.groups[ti], max)
			got, want = fmt.Sprint(ln, lrecs), fmt.Sprint(rn, rrecs)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("step %d, topic %s, %s: lazy %+v, eager %+v", step, lazy.topics[ti].Name, op, got, want)
		}
		if diff := lazy.diff(ref); diff != "" {
			t.Fatalf("step %d, topic %s, after %s: %s", step, lazy.topics[ti].Name, op, diff)
		}
	}
}

// fetchReleased fetches a chunk and releases it at once, holding a copy of
// its ranges: later fetches reuse the chunk while the ranges await commit.
func (s *lockstepSide) fetchReleased(ti int, max int64) string {
	c := s.groups[ti].FetchChunk(max)
	if c == nil {
		return "nil"
	}
	ranges := append([]OffsetRange(nil), c.Ranges...)
	got := fmt.Sprint(c.Count, c.Records, ranges)
	s.groups[ti].Release(c)
	s.held = append(s.held, held{topic: ti, ranges: ranges})
	return got
}

func (s *lockstepSide) fetchChunk(ti int, max int64) string {
	c := s.groups[ti].FetchChunk(max)
	if c == nil {
		return "nil"
	}
	s.held = append(s.held, held{topic: ti, ranges: c.Ranges, chunk: c})
	return fmt.Sprint(c.Count, c.Records, c.Ranges)
}

// commitHeld commits the h-th outstanding fetch (modulo their number) and
// releases its chunk, so later fetches reuse the pooled slices.
func (s *lockstepSide) commitHeld(h int) {
	if len(s.held) == 0 {
		return
	}
	h %= len(s.held)
	f := s.held[h]
	s.held = append(s.held[:h], s.held[h+1:]...)
	g := s.groups[f.topic]
	g.Commit(f.ranges)
	g.Release(f.chunk)
}

// diff reports the first difference between two sides' observable state.
func (s *lockstepSide) diff(o *lockstepSide) string {
	for ti, tp := range s.topics {
		otp, g, og := o.topics[ti], s.groups[ti], o.groups[ti]
		if tp.TotalEnd() != otp.TotalEnd() {
			return fmt.Sprintf("%s TotalEnd %d, eager %d", tp.Name, tp.TotalEnd(), otp.TotalEnd())
		}
		for j, p := range tp.Partitions {
			if p.End() != otp.Partitions[j].End() {
				return fmt.Sprintf("%s partition %d End %d, eager %d", tp.Name, j, p.End(), otp.Partitions[j].End())
			}
			if g.Position(j) != og.Position(j) || g.Committed(j) != og.Committed(j) {
				return fmt.Sprintf("%s partition %d position/committed %d/%d, eager %d/%d",
					tp.Name, j, g.Position(j), g.Committed(j), og.Position(j), og.Committed(j))
			}
		}
		if g.Lag() != og.Lag() || g.CommittedLag() != og.CommittedLag() || g.Redelivered() != og.Redelivered() {
			return fmt.Sprintf("%s lag/committed lag/redelivered %d/%d/%d, eager %d/%d/%d", tp.Name,
				g.Lag(), g.CommittedLag(), g.Redelivered(), og.Lag(), og.CommittedLag(), og.Redelivered())
		}
		if g.FullyCommitted() != og.FullyCommitted() {
			return fmt.Sprintf("%s FullyCommitted %v, eager %v", tp.Name, g.FullyCommitted(), og.FullyCommitted())
		}
		n, f := s.obs.n[tp.Name], s.obs.f[tp.Name]
		on, of := o.obs.n[tp.Name], o.obs.f[tp.Name]
		if n != on || math.Float64bits(f) != math.Float64bits(of) || n != tp.TotalEnd() {
			return fmt.Sprintf("%s OnAppend sums %d/%v, eager %d/%v, TotalEnd %d", tp.Name, n, f, on, of, tp.TotalEnd())
		}
	}
	if a, oa := *s.bus.TenantAccount("acme"), *o.bus.TenantAccount("acme"); a != oa {
		return fmt.Sprintf("tenant account %+v, eager %+v", a, oa)
	}
	return ""
}

// TestBrokerLockstep runs the lazy and the eager broker through random
// operation sequences.
func TestBrokerLockstep(t *testing.T) {
	r := rng.New(2203).Split("broker/lockstep").Rand()
	for run := 0; run < 300; run++ {
		ops := make([]byte, 50+r.Intn(2000))
		for i := range ops {
			ops[i] = byte(r.Intn(256))
		}
		runLockstep(t, ops)
	}
}

// FuzzBrokerLockstep is TestBrokerLockstep over fuzzed operation bytes.
func FuzzBrokerLockstep(f *testing.F) {
	f.Add([]byte{3, 4, 2, 1, 0, 0, 3, 200, 9, 1, 5, 0, 0, 1, 1, 2, 2})
	f.Add([]byte{0, 0, 0, 0, 1, 0, 0, 3, 250, 250, 39, 7, 1, 3, 1, 1, 6, 0, 0, 1, 7, 0})
	f.Add([]byte{8, 11, 4, 3, 2, 0, 1, 1, 5, 2, 4, 3, 0, 2, 3, 1, 2, 6, 1, 0, 2, 8, 3, 0, 9, 0, 0, 0, 7, 1})
	f.Fuzz(func(t *testing.T, ops []byte) {
		runLockstep(t, ops)
	})
}
