package service

import (
	"net/http"

	"nostop/internal/metrics"
	"nostop/internal/ratetrace"
	"nostop/internal/sim"
)

// BrokerOptions configure a broker service incarnation.
type BrokerOptions struct {
	// Clock is the component's virtual clock (shared in sim mode, paced in
	// wall mode). Required.
	Clock *sim.Clock
	// Trace is the deterministic arrival-rate source driving offset growth.
	// Required.
	Trace ratetrace.Trace
	// Epoch is the incarnation counter, supervisor-assigned (+1 per
	// restart).
	Epoch int
	// Metrics is optional.
	Metrics *metrics.Registry
}

// brokerMaxFetch hard-caps records per fetch response regardless of the
// consumer's ask.
const brokerMaxFetch = 1 << 20

// BrokerService is the source-of-truth message broker: it turns the rate
// trace into a monotone offset space and serves it to exactly one consumer
// group over HTTP with at-least-once semantics.
//
// Offset protocol: head is the newest generated offset, served the highest
// handed to the consumer, committed the consumer's processed watermark.
// Fetches piggyback the consumer's committed offset; a restarted broker
// learns its base from the first fetch it sees, and a *new consumer
// incarnation* (different instance ID) rewinds served to committed so the
// uncommitted span is redelivered rather than lost. Records are counts, as
// everywhere in the simulation.
//
// Not safe for concurrent use: callers serialise through the component's
// execution context.
type BrokerService struct {
	o BrokerOptions

	inited    bool
	startAt   sim.Time
	base      int64
	head      int64
	served    int64
	committed int64
	frac      float64
	lastGenAt sim.Time
	arrivals  ratetrace.Integrator // of o.Trace
	consumer  string
	rewinds   int64
	mux       *http.ServeMux
	// Handlers run one at a time, so they reuse their decode targets, the
	// request read-ahead and the reply buffer.
	fetchReq  fetchRequest
	commitReq commitRequest
	in        []byte
	out       []byte

	cFetches *metrics.Counter
	cServed  *metrics.Counter
	cRewinds *metrics.Counter
	gHead    *metrics.Gauge
	gCommit  *metrics.Gauge
	gEpoch   *metrics.Gauge
}

// fetchRequest is the POST /fetch body.
type fetchRequest struct {
	// Consumer identifies the consumer incarnation; a change rewinds
	// served to committed.
	Consumer string `json:"consumer"`
	// Committed piggybacks the consumer's processed watermark.
	Committed int64 `json:"committed"`
	// Max bounds how many records the consumer will accept.
	Max int64 `json:"max"`
	// known is a consumer ID decodeWire returns instead of allocating an
	// equal one: the broker's current consumer. It is not on the wire.
	known string
}

// fetchResponse is the POST /fetch reply.
type fetchResponse struct {
	From      int64 `json:"from"`
	Count     int64 `json:"count"`
	Head      int64 `json:"head"`
	Committed int64 `json:"committed"`
	Epoch     int   `json:"epoch"`
}

// commitRequest is the POST /commit body.
type commitRequest struct {
	Committed int64 `json:"committed"`
}

// NewBrokerService builds one broker incarnation.
func NewBrokerService(o BrokerOptions) *BrokerService {
	b := &BrokerService{o: o, arrivals: ratetrace.NewIntegrator(o.Trace)}
	if reg := o.Metrics; reg != nil {
		b.cFetches = reg.Counter("nostop_service_broker_fetches_total", "Fetch requests served")
		b.cServed = reg.Counter("nostop_service_broker_served_records_total", "Records handed to the consumer")
		b.cRewinds = reg.Counter("nostop_service_broker_consumer_rewinds_total", "Served-offset rewinds after a consumer incarnation change")
		b.gHead = reg.Gauge("nostop_service_broker_head_offset", "Newest generated offset")
		b.gCommit = reg.Gauge("nostop_service_broker_committed_offset", "Consumer committed watermark")
		b.gEpoch = reg.Gauge("nostop_service_epoch", "Component incarnation", metrics.L("component", PeerBroker))
	}
	b.mux = http.NewServeMux()
	b.mux.HandleFunc("POST /fetch", b.handleFetch)
	b.mux.HandleFunc("POST /commit", b.handleCommit)
	b.mux.HandleFunc("GET /healthz", b.handleHealthz)
	b.mux.HandleFunc("GET /invariants", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, b.Snapshot())
	})
	return b
}

// Handler implements component.
func (b *BrokerService) Handler() http.Handler { return b.mux }

// Start implements component: arrivals accrue from this instant.
func (b *BrokerService) Start() error {
	b.startAt = b.o.Clock.Now()
	if b.gEpoch != nil {
		b.gEpoch.Set(float64(b.o.Epoch))
	}
	return nil
}

// Stop implements component.
func (b *BrokerService) Stop() {}

// gen advances head by the trace arrivals since the last generation point.
// Generation is lazy — computed on demand at fetch time — so the broker
// schedules no clock events of its own.
func (b *BrokerService) gen() {
	now := b.o.Clock.Now()
	if now <= b.lastGenAt {
		return
	}
	x := b.arrivals.RecordsIn(b.lastGenAt, now, (now-b.lastGenAt).Seconds()) + b.frac
	n := int64(x)
	b.frac = x - float64(n)
	b.head += n
	b.lastGenAt = now
	b.gHead.Set(float64(b.head))
}

func (b *BrokerService) handleFetch(w http.ResponseWriter, r *http.Request) {
	b.fetchReq = fetchRequest{known: b.consumer}
	if err := decodeBody(r.Body, &b.fetchReq, &b.in); err != nil {
		http.Error(w, "bad fetch request: "+err.Error(), http.StatusBadRequest)
		return
	}
	req := &b.fetchReq
	b.cFetches.Inc()
	if !b.inited {
		// First consumer contact of this incarnation: adopt the consumer's
		// watermark as the offset base and generate arrivals from the
		// incarnation's start, so uncommitted records are redelivered and
		// in-incarnation arrival continuity holds.
		b.inited = true
		b.base = req.Committed
		b.head = req.Committed
		b.served = req.Committed
		b.committed = req.Committed
		b.lastGenAt = b.startAt
	}
	if req.Committed > b.committed {
		b.committed = req.Committed
		b.gCommit.Set(float64(b.committed))
	}
	if req.Consumer != b.consumer {
		if b.consumer != "" {
			b.served = b.committed
			b.rewinds++
			b.cRewinds.Inc()
		}
		b.consumer = req.Consumer
	}
	b.gen()
	max := req.Max
	if max <= 0 || max > brokerMaxFetch {
		max = brokerMaxFetch
	}
	n := b.head - b.served
	if n > max {
		n = max
	}
	if n < 0 {
		n = 0
	}
	from := b.served
	b.served += n
	b.cServed.Add(float64(n))
	b.out = fetchResponse{
		From: from, Count: n, Head: b.head, Committed: b.committed, Epoch: b.o.Epoch,
	}.appendJSON(b.out[:0])
	writeReply(w, b.out)
}

func (b *BrokerService) handleCommit(w http.ResponseWriter, r *http.Request) {
	b.commitReq = commitRequest{}
	if err := decodeBody(r.Body, &b.commitReq, &b.in); err != nil {
		http.Error(w, "bad commit request: "+err.Error(), http.StatusBadRequest)
		return
	}
	if c := b.commitReq.Committed; c > b.committed {
		b.committed = c
		b.gCommit.Set(float64(b.committed))
	}
	b.out = commitRequest{Committed: b.committed}.appendJSON(b.out[:0])
	writeReply(w, b.out)
}

func (b *BrokerService) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, map[string]any{"role": PeerBroker, "epoch": b.o.Epoch})
}

// Snapshot implements component.
func (b *BrokerService) Snapshot() InvariantSnapshot {
	b.gen()
	return InvariantSnapshot{
		Role:            PeerBroker,
		Epoch:           b.o.Epoch,
		VirtualSec:      secs(b.o.Clock.Now()),
		HeadOffset:      b.head,
		ServedOffset:    b.served,
		CommittedOffset: b.committed,
		ConsumerRewinds: b.rewinds,
	}
}
