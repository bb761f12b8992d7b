// Package broker implements a Kafka-like message bus: named topics split
// into partitions, partitions hosted on brokers, offset-tracked produce and
// consume, and consumer groups with range assignment.
//
// The paper's testbed runs a Kafka 2.5.0 broker on every node and keeps the
// partition count above the cluster's total core count to avoid ingest
// bottlenecks (§6.1); producers spread records uniformly across brokers to
// avoid skew. This package reproduces those mechanics. Because experiment
// rates reach hundreds of thousands of records per second over hours of
// virtual time, partitions track offsets in bulk and retain only a bounded
// tail of concrete record payloads — enough for the semantic workload
// implementations to process real data — rather than materialising every
// record.
package broker

import (
	"errors"
	"fmt"

	"nostop/internal/sim"
)

// Record is one message with a concrete payload.
type Record struct {
	Partition int
	Offset    int64
	Key       string
	Value     string
	Time      sim.Time
}

// Observer receives notifications of broker-level log activity — the hook
// point the observability layer (internal/metrics, internal/tracing)
// attaches through. All callbacks run synchronously on the simulation
// thread in deterministic event order; implementations must not mutate
// broker state. A nil observer disables notification.
type Observer interface {
	// OnAppend fires once per produce call (Send or a SendCount of n > 0)
	// after n records are appended to the topic, however they are spread
	// over its partitions.
	OnAppend(topic string, n int64)
	// OnFetch fires after a consumer-group fetch consumes n records over
	// the given offset ranges.
	OnFetch(topic string, n int64, ranges []OffsetRange)
	// OnCommit fires after ranges are durably committed; n is the number
	// of newly committed records (0 for pure re-commits).
	OnCommit(topic string, n int64, ranges []OffsetRange)
	// OnRewind fires when a partition's fetch position rewinds to its
	// committed offset; redelivered is the span that will be re-fetched.
	OnRewind(topic string, partition int, redelivered int64)
	// OnOutage fires when a partition leader goes down (down=true) or is
	// restored (down=false).
	OnOutage(topic string, partition int, down bool)
}

// Partition is an append-only offset log with a bounded sample tail.
type Partition struct {
	Topic  string
	ID     int
	Broker *Broker

	// The log spans offsets [begin, End()): end plus the records of the
	// topic's pending SendCount window that fall on this partition.
	begin, end int64
	down       bool // outage: the partition leader is unreachable
	obs        Observer
	top        *Topic // owning topic, for incremental aggregate accounting

	samples    []Record // ring buffer of most recent concrete payloads
	sampleHead int      // index of the oldest retained record once full
}

// SetDown marks the partition's leader unreachable (true) or restored
// (false). While down the partition accepts produce requests — the simulated
// outage models a consumer-side fetch failure, with the log itself durable —
// but consumer groups cannot fetch from it.
func (p *Partition) SetDown(down bool) {
	if down != p.down && p.top != nil {
		if down {
			p.top.downCount++
		} else {
			p.top.downCount--
		}
	}
	p.down = down
	if p.obs != nil {
		p.obs.OnOutage(p.Topic, p.ID, down)
	}
}

// Begin returns the first retained offset (0 in this in-memory model).
func (p *Partition) Begin() int64 { return p.begin }

// End returns the next offset to be written. O(1): it adds the partition's
// share of the topic's pending SendCount window.
func (p *Partition) End() int64 { return p.end + p.top.owed(p.ID) }

// retain keeps a produced payload record in the sample ring.
func (p *Partition) retain(rec Record) {
	if cap(p.samples) > 0 {
		if len(p.samples) < cap(p.samples) {
			p.samples = append(p.samples, rec)
		} else {
			p.samples[p.sampleHead] = rec
			p.sampleHead = (p.sampleHead + 1) % cap(p.samples)
		}
	}
}

// Broker hosts partitions; one broker is deployed per cluster node (§6.1).
type Broker struct {
	ID         int
	NodeID     int
	partitions []*Partition
}

// Bus is the broker cluster plus topic registry.
type Bus struct {
	brokers []*Broker
	topics  map[string]*Topic
}

// Topic is a named set of partitions.
type Topic struct {
	Name       string
	Partitions []*Partition
	obs        Observer

	// Incremental aggregates, so the per-batch accounting paths (Lag,
	// Fetch availability, TotalEnd) are O(1) instead of rescanning every
	// partition on every batch cut.
	totalEnd  int64 // sum of partition end offsets
	downCount int   // partitions currently in outage

	// The pending window: records produced but not yet added to the
	// partitions' end fields. Round-robin remainders of successive sends
	// from one cursor tile the ring contiguously, so k sends amount to
	// pendBase records on every partition plus one more on the pendRem
	// partitions from pendStart on (pendRem < len(Partitions)). A produce
	// call is then O(1) whatever the partition count; owed gives one
	// partition's share, and fetches spread the window before they scan.
	pendBase, pendRem int64
	pendStart         int
}

// SetObserver installs (or, with nil, removes) the activity observer on the
// topic and all its partitions. Call before traffic starts; the observer is
// not retroactive.
func (t *Topic) SetObserver(o Observer) {
	t.obs = o
	for _, p := range t.Partitions {
		p.obs = o
	}
}

// Errors returned by bus operations.
var (
	ErrTopicExists   = errors.New("broker: topic already exists")
	ErrUnknownTopic  = errors.New("broker: unknown topic")
	ErrNoBrokers     = errors.New("broker: bus has no brokers")
	ErrBadPartitions = errors.New("broker: partition count must be positive")
)

// NewBus creates a bus with one broker per node ID.
func NewBus(nodeIDs []int) (*Bus, error) {
	if len(nodeIDs) == 0 {
		return nil, ErrNoBrokers
	}
	bus := &Bus{topics: make(map[string]*Topic)}
	for i, nid := range nodeIDs {
		bus.brokers = append(bus.brokers, &Broker{ID: i, NodeID: nid})
	}
	return bus, nil
}

// CreateTopic registers a topic with nPartitions partitions assigned to
// brokers round-robin. sampleCap bounds the concrete payload tail retained
// per partition (0 disables payload retention).
func (b *Bus) CreateTopic(name string, nPartitions, sampleCap int) (*Topic, error) {
	if nPartitions <= 0 {
		return nil, ErrBadPartitions
	}
	if _, ok := b.topics[name]; ok {
		return nil, ErrTopicExists
	}
	t := &Topic{Name: name}
	for i := 0; i < nPartitions; i++ {
		br := b.brokers[i%len(b.brokers)]
		p := &Partition{Topic: name, ID: i, Broker: br, top: t}
		if sampleCap > 0 {
			p.samples = make([]Record, 0, sampleCap)
		}
		br.partitions = append(br.partitions, p)
		t.Partitions = append(t.Partitions, p)
	}
	b.topics[name] = t
	return t, nil
}

// CreateTenantTopic registers a topic on behalf of a tenant. It creates a
// plain topic, as CreateTopic does; the tenant name must not be empty. The
// broker keeps no per-tenant state, so nothing in the simulator calls it;
// it stays for the benchmark harness's replay, which does.
func (b *Bus) CreateTenantTopic(name, tenant string, nPartitions, sampleCap int) (*Topic, error) {
	if tenant == "" {
		return nil, errors.New("broker: empty tenant name")
	}
	return b.CreateTopic(name, nPartitions, sampleCap)
}

// Topic looks up a topic by name.
func (b *Bus) Topic(name string) (*Topic, error) {
	t, ok := b.topics[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownTopic, name)
	}
	return t, nil
}

// TotalEnd returns the sum of partition end offsets for a topic — the total
// number of records ever produced to it.
func (t *Topic) TotalEnd() int64 { return t.totalEnd }

// owed returns partition i's share of the pending window.
func (t *Topic) owed(i int) int64 {
	k := i - t.pendStart
	if k < 0 {
		k += len(t.Partitions)
	}
	if int64(k) < t.pendRem {
		return t.pendBase + 1
	}
	return t.pendBase
}

// spread adds the pending window to the partitions' end fields and empties
// it, after which each partition's end field is its End. Partition ends
// read the same before and after.
func (t *Topic) spread() {
	if t.pendBase == 0 && t.pendRem == 0 {
		return
	}
	for _, p := range t.Partitions {
		p.end += t.pendBase
	}
	i := t.pendStart
	for k := int64(0); k < t.pendRem; k++ {
		t.Partitions[i].end++
		if i++; i == len(t.Partitions) {
			i = 0
		}
	}
	t.pendBase, t.pendRem = 0, 0
}

// DownPartitions returns how many partitions are currently in outage — the
// O(1) any-partition-down check the engine's per-batch fault probe relies on.
func (t *Topic) DownPartitions() int { return t.downCount }

// Producer writes to one topic, spreading records uniformly across
// partitions (round-robin), which is how the paper's generator avoids skew.
type Producer struct {
	topic *Topic
	next  int
}

// NewProducer returns a producer for the named topic.
func (b *Bus) NewProducer(topic string) (*Producer, error) {
	t, err := b.Topic(topic)
	if err != nil {
		return nil, err
	}
	return &Producer{topic: t}, nil
}

// Send appends one concrete record to the partition at the producer's
// cursor, retains it in that partition's sample ring and returns it (with
// partition/offset assigned). Accounting-wise it is SendCount(1).
//
//nostop:hotpath
func (p *Producer) Send(key, value string, t sim.Time) Record {
	part := p.topic.Partitions[p.next]
	rec := Record{Partition: part.ID, Offset: part.End(), Key: key, Value: value, Time: t}
	p.SendCount(1)
	part.retain(rec)
	return rec
}

// SendCount appends n payload-less records spread as evenly as possible
// across partitions, round-robin from the producer's cursor: every
// partition gets n/P, and the n%P partitions from the cursor on get one
// more. Used for bulk rate simulation: the engine sends what its producer
// ticks counted once per run of ticks (see sim.Ticker.SetSettle), which
// leaves every partition where one send per tick would, since successive
// sends from one cursor tile the partition ring.
//
// It is O(1) and allocation-free: the records join the topic's pending
// window (see Topic), and the observer's OnAppend fires once with n. The
// window is spread onto the partitions, in O(P), by the next fetch, or
// first here by a producer whose cursor does not continue it (a second
// producer on the topic).
//
//nostop:hotpath
func (p *Producer) SendCount(n int64) {
	if n <= 0 {
		return
	}
	t := p.topic
	parts := int64(len(t.Partitions))
	// pendStart, pendRem, next and rem are each below parts, so a sum of
	// two wraps with one subtraction instead of a modulo.
	if t.pendRem > 0 {
		end := int64(t.pendStart) + t.pendRem
		if end >= parts {
			end -= parts
		}
		if end != int64(p.next) {
			t.spread()
		}
	}
	if t.pendRem == 0 {
		t.pendStart = p.next
	}
	rem := n % parts
	t.pendBase += n / parts
	if t.pendRem += rem; t.pendRem >= parts {
		t.pendBase++
		t.pendRem -= parts
	}
	next := int64(p.next) + rem
	if next >= parts {
		next -= parts
	}
	p.next = int(next)
	t.totalEnd += n
	if t.obs != nil {
		t.obs.OnAppend(t.Name, n)
	}
}

// OffsetRange identifies a consumed span [From, To) of one partition — the
// unit of commit and replay, mirroring Spark's direct-stream OffsetRange.
type OffsetRange struct {
	Partition int
	From, To  int64
}

// ConsumerGroup consumes a topic with two offsets per partition, matching
// Kafka consumer semantics under at-least-once processing:
//
//   - position: the next offset a fetch will read. FetchChunk advances it.
//   - committed: the highest offset whose records were durably processed.
//     Commit advances it; a failure rewinds position back to it, and the
//     records in between are fetched again (redelivered, never lost).
//
// A single logical consumer (the streaming receiver) owns all partitions,
// matching Spark's Kafka direct stream, which tracks offset ranges itself.
type ConsumerGroup struct {
	topic       *Topic
	position    []int64
	committed   []int64
	redelivered int64

	// Incremental mirrors of sum(position) and sum(committed), so lag
	// queries and fetch-availability checks are O(1) on the healthy path.
	posTotal       int64
	committedTotal int64

	chunkFree *Chunk // recycled fetch chunks
}

// Chunk is one fetch result: the consumed count, any retained concrete
// payloads inside the consumed spans, and the offset ranges read. Chunks are
// pooled on the consumer group — callers return them with Release once the
// batch is durably processed, and the backing slices are reused by later
// fetches, so steady-state record hand-off allocates nothing.
type Chunk struct {
	Count   int64
	Records []Record
	Ranges  []OffsetRange
	next    *Chunk
}

// NewConsumerGroup returns a group positioned at each partition's current
// begin offset.
func (b *Bus) NewConsumerGroup(topic string) (*ConsumerGroup, error) {
	t, err := b.Topic(topic)
	if err != nil {
		return nil, err
	}
	g := &ConsumerGroup{
		topic:     t,
		position:  make([]int64, len(t.Partitions)),
		committed: make([]int64, len(t.Partitions)),
	}
	for i, p := range t.Partitions {
		g.position[i] = p.Begin()
		g.committed[i] = p.Begin()
		g.posTotal += p.Begin()
		g.committedTotal += p.Begin()
	}
	return g, nil
}

// Lag returns the total unfetched records across partitions (relative to the
// consumer position, like Kafka's consumer lag).
func (g *ConsumerGroup) Lag() int64 { return g.topic.totalEnd - g.posTotal }

// CommittedLag returns records not yet durably processed — everything past
// the committed offsets, including fetched-but-uncommitted spans.
func (g *ConsumerGroup) CommittedLag() int64 { return g.topic.totalEnd - g.committedTotal }

// Redelivered returns the total records re-fetched after a rewind — the
// at-least-once duplicate count.
func (g *ConsumerGroup) Redelivered() int64 { return g.redelivered }

// FetchChunk consumes up to max records across all live partitions (max <=
// 0 means all available), advancing positions but not committed offsets. It
// returns a pooled Chunk holding the consumed count, any retained concrete
// payloads inside the consumed spans, and the offset ranges read — the
// caller commits the ranges once processing succeeds — or nil when nothing
// is available. Partitions in outage are skipped; their backlog stays
// fetchable after restoration. The chunk's backing slices are reused across
// fetches: release it once its ranges are committed (or abandoned); until
// then it owns its payload copies, so replay and retry see stable data.
//
//nostop:hotpath
func (g *ConsumerGroup) FetchChunk(max int64) *Chunk {
	// The scans below read each partition's end field as its end.
	g.topic.spread()
	var avail int64
	if g.topic.downCount == 0 {
		// Healthy path: no partition is down, so availability is just the
		// incremental totals — no per-partition scan.
		avail = g.topic.totalEnd - g.posTotal
	} else {
		for i, p := range g.topic.Partitions {
			if !p.down {
				avail += p.end - g.position[i]
			}
		}
	}
	want := avail
	if max > 0 && max < want {
		want = max
	}
	if want == 0 {
		return nil
	}
	c := g.chunkFree
	if c != nil {
		g.chunkFree = c.next
		c.next = nil
		c.Records = c.Records[:0]
		c.Ranges = c.Ranges[:0]
	} else {
		c = &Chunk{} //nostop:allow hotalloc -- pool miss: one chunk per concurrent fetch high-water mark
	}
	var consumed int64
	// Take partitions greedily in index order: each live partition gives
	// all it has until want is met, so a capped fetch drains the low
	// indices first.
	for i, p := range g.topic.Partitions {
		if consumed >= want {
			break
		}
		if p.down {
			continue
		}
		lag := p.end - g.position[i]
		if lag == 0 {
			continue
		}
		take := lag
		if remaining := want - consumed; take > remaining {
			take = remaining
		}
		from, to := g.position[i], g.position[i]+take
		// Scan the sample ring in place (oldest first) instead of
		// materialising a copy per fetch.
		for j := 0; j < len(p.samples); j++ {
			rec := &p.samples[(p.sampleHead+j)%len(p.samples)]
			if rec.Offset >= from && rec.Offset < to {
				//nostop:allow hotalloc -- appends into the pooled chunk's recycled backing array
				c.Records = append(c.Records, *rec)
			}
		}
		//nostop:allow hotalloc -- appends into the pooled chunk's recycled backing array
		c.Ranges = append(c.Ranges, OffsetRange{Partition: i, From: from, To: to})
		g.position[i] = to
		consumed += take
	}
	g.posTotal += consumed
	c.Count = consumed
	if g.topic.obs != nil {
		g.topic.obs.OnFetch(g.topic.Name, consumed, c.Ranges)
	}
	return c
}

// Release returns a chunk to the group's pool. The chunk and its slices
// must not be used after release.
//
//nostop:hotpath
func (g *ConsumerGroup) Release(c *Chunk) {
	if c == nil {
		return
	}
	c.next = g.chunkFree
	g.chunkFree = c
}

// Commit durably acknowledges processed ranges, advancing committed offsets.
// Ranges may arrive out of order (a retried batch can finish after a later
// one); committed only moves forward.
//
//nostop:hotpath
func (g *ConsumerGroup) Commit(ranges []OffsetRange) {
	var advanced int64
	for _, r := range ranges {
		if r.Partition < 0 || r.Partition >= len(g.committed) {
			continue
		}
		if r.To > g.committed[r.Partition] {
			advanced += r.To - g.committed[r.Partition]
			g.committed[r.Partition] = r.To
		}
	}
	g.committedTotal += advanced
	if g.topic.obs != nil && len(ranges) > 0 {
		g.topic.obs.OnCommit(g.topic.Name, advanced, ranges)
	}
}

// Rewind resets one partition's fetch position back to its committed offset
// — the consumer's reaction to a partition outage killing its in-flight
// fetch session. The span between the two offsets will be fetched again; it
// is added to the redelivery counter and returned.
//
//nostop:hotpath
func (g *ConsumerGroup) Rewind(partition int) int64 {
	if partition < 0 || partition >= len(g.position) {
		return 0
	}
	delta := g.position[partition] - g.committed[partition]
	if delta <= 0 {
		return 0
	}
	g.position[partition] = g.committed[partition]
	g.posTotal -= delta
	g.redelivered += delta
	if g.topic.obs != nil {
		g.topic.obs.OnRewind(g.topic.Name, partition, delta)
	}
	return delta
}
