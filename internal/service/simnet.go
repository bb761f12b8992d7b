package service

import (
	"bytes"
	"net/http"
	"time"

	"nostop/internal/rng"
	"nostop/internal/sim"
)

// SimNet is the deterministic in-process network: peers register their
// http.Handler, and a RoundTrip delivers the request by invoking the peer's
// handler inline at a virtually-delayed instant on the shared sim.Clock.
// Per-link latency and drop decisions draw from seeded streams split per
// directed link, so a fixed root seed replays every exchange — including
// every fault outcome — byte-identically.
type SimNet struct {
	clock *sim.Clock
	peers map[string]*simPeer
	links map[string]*simLink
	seed  *rng.Stream
}

type simPeer struct {
	handler http.Handler
	down    bool
}

type simLink struct {
	n        *SimNet
	from, to string
	lat      *rng.Stream
	drop     *rng.Stream
	fault    LinkFault
	rw       simResponse
}

// simResponse is the http.ResponseWriter a link reuses for every delivery
// it makes; deliveries run one at a time on the event loop, and each copies
// the body out before the next begins. The status defaults to 200, the
// first WriteHeader wins, and Write implies 200.
type simResponse struct {
	header http.Header
	code   int
	body   bytes.Buffer
}

// Header implements http.ResponseWriter.
func (r *simResponse) Header() http.Header { return r.header }

// WriteHeader implements http.ResponseWriter.
func (r *simResponse) WriteHeader(code int) {
	if r.code == 0 {
		r.code = code
	}
}

// Write implements http.ResponseWriter.
func (r *simResponse) Write(p []byte) (int, error) {
	r.WriteHeader(http.StatusOK)
	return r.body.Write(p)
}

// reset readies the writer for the next delivery.
func (r *simResponse) reset() {
	clear(r.header)
	r.code = 0
	r.body.Reset()
}

// status is the delivered status code.
func (r *simResponse) status() int {
	if r.code == 0 {
		return http.StatusOK
	}
	return r.code
}

// NewSimNet builds a network on the shared clock. seed feeds per-link
// latency/drop streams; nil means zero latency and no drop capability.
func NewSimNet(clock *sim.Clock, seed *rng.Stream) *SimNet {
	return &SimNet{
		clock: clock,
		peers: make(map[string]*simPeer),
		links: make(map[string]*simLink),
		seed:  seed,
	}
}

// Register announces a peer's current handler; re-registering models a
// restarted incarnation. A nil handler while registered behaves as down.
func (n *SimNet) Register(name string, h http.Handler) {
	p := n.peers[name]
	if p == nil {
		p = &simPeer{}
		n.peers[name] = p
	}
	p.handler = h
	p.down = false
}

// SetDown marks a peer dead (connection refused) or alive.
func (n *SimNet) SetDown(name string, down bool) {
	if p := n.peers[name]; p != nil {
		p.down = down
	}
}

// SetLink installs a fault on the directed link from→to (zero value heals).
func (n *SimNet) SetLink(from, to string, f LinkFault) {
	n.link(from, to).fault = f
}

// Transport returns the directed-link transport for an owner component.
func (n *SimNet) Transport(from, to string) Transport {
	return n.link(from, to)
}

func (n *SimNet) link(from, to string) *simLink {
	key := from + "->" + to
	l := n.links[key]
	if l == nil {
		l = &simLink{n: n, from: from, to: to, rw: simResponse{header: make(http.Header)}}
		if n.seed != nil {
			l.lat = n.seed.Split("net/lat/" + key)
			l.drop = n.seed.Split("net/drop/" + key)
		}
		n.links[key] = l
	}
	return l
}

// latency draws one direction's wire delay.
func (l *simLink) latency() time.Duration {
	if l.lat == nil {
		return 0
	}
	return time.Duration(l.lat.Uniform(0.5, 3.0) * float64(time.Millisecond))
}

// RoundTrip implements Transport. A dropped exchange never invokes done —
// the caller's deadline observes it. Refusal (injected, or a down peer) is
// reported after the forward latency, and successful replies travel back
// with an independent latency draw.
func (l *simLink) RoundTrip(req Request, done func(Response, error)) {
	f := l.fault
	if f.DropProb > 0 && l.drop != nil && l.drop.Float64() < f.DropProb {
		return
	}
	body := append([]byte(nil), req.Body...)
	l.n.clock.After(l.latency()+f.Delay, func() {
		if l.fault.Refuse {
			done(Response{}, ErrRefused)
			return
		}
		p := l.n.peers[l.to]
		if p == nil || p.down || p.handler == nil {
			done(Response{}, ErrRefused)
			return
		}
		// http.NewRequest, not httptest.NewRequest: the latter parses a
		// request line through a fresh 4 KB bufio.Reader per delivery.
		hreq, err := http.NewRequest(req.Method, req.Path, bytes.NewReader(body))
		if err != nil {
			done(Response{}, err)
			return
		}
		rw := &l.rw
		rw.reset()
		p.handler.ServeHTTP(rw, hreq)
		resp := Response{Status: rw.status(), Body: append([]byte(nil), rw.body.Bytes()...)}
		l.n.clock.After(l.latency(), func() { done(resp, nil) })
	})
}
