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
	"sort"

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
	// OnAppend fires after records are appended to a partition log.
	OnAppend(topic string, partition int, n int64)
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

	begin, end int64 // log spans offsets [begin, end)
	down       bool  // outage: the partition leader is unreachable
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

// Down reports whether the partition is currently in outage.
func (p *Partition) Down() bool { return p.down }

// Begin returns the first retained offset (0 in this in-memory model).
func (p *Partition) Begin() int64 { return p.begin }

// End returns the next offset to be written.
func (p *Partition) End() int64 { return p.end }

// appendCount appends n records without payloads.
//
//nostop:hotpath
func (p *Partition) appendCount(n int64) {
	p.end += n
	if t := p.top; t != nil {
		t.totalEnd += n
		if t.acct != nil {
			t.acct.Produced += n
		}
	}
	if p.obs != nil && n > 0 {
		p.obs.OnAppend(p.Topic, p.ID, n)
	}
}

// appendRecord appends one concrete record, retaining it in the sample ring.
func (p *Partition) appendRecord(key, value string, t sim.Time) Record {
	rec := Record{Partition: p.ID, Offset: p.end, Key: key, Value: value, Time: t}
	p.end++
	if top := p.top; top != nil {
		top.totalEnd++
		if top.acct != nil {
			top.acct.Produced++
		}
	}
	if p.obs != nil {
		p.obs.OnAppend(p.Topic, p.ID, 1)
	}
	if cap(p.samples) > 0 {
		if len(p.samples) < cap(p.samples) {
			p.samples = append(p.samples, rec)
		} else {
			p.samples[p.sampleHead] = rec
			p.sampleHead = (p.sampleHead + 1) % cap(p.samples)
		}
	}
	return rec
}

// SampleTail returns up to max of the most recently retained payload records,
// oldest first. max <= 0 returns all retained records.
func (p *Partition) SampleTail(max int) []Record {
	n := len(p.samples)
	if max > 0 && n > max {
		n = max
	}
	out := make([]Record, 0, n)
	skip := len(p.samples) - n
	for i := skip; i < len(p.samples); i++ {
		out = append(out, p.samples[(p.sampleHead+i)%len(p.samples)])
	}
	return out
}

// Broker hosts partitions; one broker is deployed per cluster node (§6.1).
type Broker struct {
	ID         int
	NodeID     int
	partitions []*Partition
}

// Partitions returns the partitions hosted by this broker.
func (b *Broker) Partitions() []*Partition { return b.partitions }

// Bus is the broker cluster plus topic registry.
type Bus struct {
	brokers []*Broker
	topics  map[string]*Topic
	tenants map[string]*TenantAccount
}

// TenantAccount is the bus-level incremental accounting of one tenant's
// traffic across its topics. Every field is advanced by O(1) increments on
// the existing produce/fetch/commit/rewind paths — never by scanning
// partitions — so per-tenant observability at O(100) partitions per topic
// costs a handful of integer adds per operation and zero allocations
// (the PR-7 hotalloc contract extends to these paths).
type TenantAccount struct {
	Tenant      string
	Produced    int64 // records appended to the tenant's topics
	Fetched     int64 // records consumed by the tenant's receiver
	Committed   int64 // records durably processed
	Redelivered int64 // records re-fetched after outage rewinds
}

// Lag returns the tenant's consumer lag: produced but not yet fetched.
// Rewound (to-be-redelivered) spans count as lag again.
func (a *TenantAccount) Lag() int64 { return a.Produced + a.Redelivered - a.Fetched }

// CommittedLag returns records produced but not yet durably processed.
func (a *TenantAccount) CommittedLag() int64 { return a.Produced - a.Committed }

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

	// acct, when non-nil, is the owning tenant's bus-level account; the
	// produce/fetch/commit/rewind paths tick it alongside totalEnd.
	acct *TenantAccount
}

// Tenant returns the name of the topic's owning tenant ("" when the topic
// is not tenant-bound).
func (t *Topic) Tenant() string {
	if t.acct == nil {
		return ""
	}
	return t.acct.Tenant
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

// Brokers returns the bus's brokers.
func (b *Bus) Brokers() []*Broker { return b.brokers }

// CreateTopic registers a topic with nPartitions partitions assigned to
// brokers round-robin. sampleCap bounds the concrete payload tail retained
// per partition (0 disables payload retention).
func (b *Bus) CreateTopic(name string, nPartitions, sampleCap int) (*Topic, error) {
	return b.createTopic(name, "", nPartitions, sampleCap)
}

// CreateTenantTopic registers a topic owned by a tenant: all traffic through
// it ticks the tenant's bus-level TenantAccount. Several topics may share a
// tenant; the account aggregates across them.
func (b *Bus) CreateTenantTopic(name, tenant string, nPartitions, sampleCap int) (*Topic, error) {
	if tenant == "" {
		return nil, errors.New("broker: empty tenant name")
	}
	return b.createTopic(name, tenant, nPartitions, sampleCap)
}

func (b *Bus) createTopic(name, tenant string, nPartitions, sampleCap int) (*Topic, error) {
	if nPartitions <= 0 {
		return nil, ErrBadPartitions
	}
	if _, ok := b.topics[name]; ok {
		return nil, ErrTopicExists
	}
	t := &Topic{Name: name}
	if tenant != "" {
		if b.tenants == nil {
			b.tenants = make(map[string]*TenantAccount)
		}
		acct := b.tenants[tenant]
		if acct == nil {
			acct = &TenantAccount{Tenant: tenant}
			b.tenants[tenant] = acct
		}
		t.acct = acct
	}
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

// TenantAccount returns the accounting of one tenant, or nil when the bus
// holds no tenant-bound topic under that name.
func (b *Bus) TenantAccount(tenant string) *TenantAccount { return b.tenants[tenant] }

// TenantAccounts returns every tenant account sorted by tenant name —
// the deterministic iteration order reports and metrics snapshots use.
func (b *Bus) TenantAccounts() []*TenantAccount {
	out := make([]*TenantAccount, 0, len(b.tenants))
	for _, a := range b.tenants {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Tenant < out[j].Tenant })
	return out
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

// Send appends one concrete record and returns it (with partition/offset
// assigned).
//
//nostop:hotpath
func (p *Producer) Send(key, value string, t sim.Time) Record {
	part := p.topic.Partitions[p.next]
	p.next = (p.next + 1) % len(p.topic.Partitions)
	return part.appendRecord(key, value, t)
}

// SendCount appends n payload-less records spread as evenly as possible
// across partitions. Used for bulk rate simulation.
//
//nostop:hotpath
func (p *Producer) SendCount(n int64) {
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
		p.topic.Partitions[idx].appendCount(cnt)
	}
	p.next = int((int64(p.next) + rem) % parts)
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
//   - position: the next offset a fetch will read. Fetch advances it.
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

// Committed returns the committed offset of a partition.
func (g *ConsumerGroup) Committed(partition int) int64 { return g.committed[partition] }

// Position returns the fetch position of a partition.
func (g *ConsumerGroup) Position(partition int) int64 { return g.position[partition] }

// Redelivered returns the total records re-fetched after a rewind — the
// at-least-once duplicate count.
func (g *ConsumerGroup) Redelivered() int64 { return g.redelivered }

// FullyCommitted reports whether every produced record has been committed:
// the "zero records lost" invariant once a run has drained.
func (g *ConsumerGroup) FullyCommitted() bool { return g.committedTotal >= g.topic.totalEnd }

// Fetch consumes up to max records across all live partitions (max <= 0
// means all available), advancing positions but not committed offsets. It
// returns the consumed count, any retained concrete payloads inside the
// consumed spans, and the offset ranges read — the caller commits the ranges
// once processing succeeds. Partitions in outage are skipped; their backlog
// stays fetchable after restoration.
func (g *ConsumerGroup) Fetch(max int64) (int64, []Record, []OffsetRange) {
	var c Chunk
	g.fetchInto(max, &c)
	return c.Count, c.Records, c.Ranges
}

// FetchChunk consumes like Fetch but fills a pooled Chunk whose backing
// slices are reused across fetches. Release the chunk once its ranges are
// committed (or abandoned); until then the chunk owns its payload copies, so
// replay and retry see stable data. Returns nil when nothing is available.
//
//nostop:hotpath
func (g *ConsumerGroup) FetchChunk(max int64) *Chunk {
	c := g.chunkFree
	if c != nil {
		g.chunkFree = c.next
		c.next = nil
		c.Count = 0
		c.Records = c.Records[:0]
		c.Ranges = c.Ranges[:0]
	} else {
		c = &Chunk{} //nostop:allow hotalloc -- pool miss: one chunk per concurrent fetch high-water mark
	}
	g.fetchInto(max, c)
	if c.Count == 0 {
		g.Release(c)
		return nil
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

// fetchInto is the fetch core shared by Fetch and FetchChunk: it appends
// consumed payloads and ranges to the chunk's slices and advances positions.
func (g *ConsumerGroup) fetchInto(max int64, c *Chunk) {
	var avail int64
	if g.topic.downCount == 0 {
		// Healthy path: no partition is down, so availability is just the
		// incremental totals — no per-partition scan.
		avail = g.topic.totalEnd - g.posTotal
	} else {
		for i, p := range g.topic.Partitions {
			if !p.down {
				avail += p.End() - g.position[i]
			}
		}
	}
	want := avail
	if max > 0 && max < want {
		want = max
	}
	if want == 0 {
		return
	}
	var consumed int64
	// Consume proportionally round-robin across partitions.
	for i, p := range g.topic.Partitions {
		if consumed >= want {
			break
		}
		if p.down {
			continue
		}
		lag := p.End() - g.position[i]
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
	if a := g.topic.acct; a != nil {
		a.Fetched += consumed
	}
	if g.topic.obs != nil && consumed > 0 {
		g.topic.obs.OnFetch(g.topic.Name, consumed, c.Ranges)
	}
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
	if a := g.topic.acct; a != nil {
		a.Committed += advanced
	}
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
	if a := g.topic.acct; a != nil {
		a.Redelivered += delta
	}
	if g.topic.obs != nil {
		g.topic.obs.OnRewind(g.topic.Name, partition, delta)
	}
	return delta
}

// Poll consumes up to max records like Fetch but commits the ranges
// immediately (auto-commit) — the pre-resilience consumption path, kept for
// callers that do not participate in replay.
func (g *ConsumerGroup) Poll(max int64) (int64, []Record) {
	n, payloads, ranges := g.Fetch(max)
	g.Commit(ranges)
	return n, payloads
}
