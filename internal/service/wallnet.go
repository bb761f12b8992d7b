package service

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"sync"
	"time"

	"nostop/internal/rng"
)

// WallNet is the real network: peers are base URLs on 127.0.0.1, exchanges
// ride real TCP connections, and link faults are applied client-side at the
// RPC layer (the same layer SimNet applies them), so the chaos surface is
// identical in both modes. It is safe for concurrent use — transports are
// driven from component goroutines while the chaos injector rewrites gates
// from the supervisor goroutine.
type WallNet struct {
	mu     sync.Mutex
	urls   map[string]string    // guarded by mu
	gates  map[string]*wallGate // guarded by mu
	seed   *rng.Stream
	client *http.Client
	// reqTimeout bounds the raw HTTP exchange; it is set above the RPC
	// client's per-attempt deadline so the Timebase deadline stays
	// authoritative and this is only a goroutine-leak backstop.
	reqTimeout time.Duration

	// Every exchange goroutine is counted in exchanges and watches ctx,
	// which Stop cancels, in its delay and in its HTTP request. Stop
	// cancels under mu, so no exchange is counted after Stop has begun
	// to wait.
	exchanges sync.WaitGroup
	ctx       context.Context
	cancel    context.CancelFunc
}

// wallGate holds one directed link's mutable fault and its seeded drop
// stream, guarded for concurrent writer (chaos) vs reader (transport).
type wallGate struct {
	mu   sync.Mutex
	f    LinkFault // guarded by mu
	drop *rng.Stream
}

// roll snapshots the fault and draws the drop decision atomically.
func (g *wallGate) roll() (LinkFault, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.f.DropProb > 0 && g.drop != nil && g.drop.Float64() < g.f.DropProb {
		return g.f, true
	}
	return g.f, false
}

// NewWallNet builds a wall-mode network. reqTimeout should exceed the RPC
// per-attempt deadline (pass 0 for a 10s default).
func NewWallNet(seed *rng.Stream, reqTimeout time.Duration) *WallNet {
	if reqTimeout <= 0 {
		reqTimeout = 10 * time.Second
	}
	ctx, cancel := context.WithCancel(context.Background())
	return &WallNet{
		urls:  make(map[string]string),
		gates: make(map[string]*wallGate),
		seed:  seed,
		client: &http.Client{
			Transport: &http.Transport{MaxIdleConnsPerHost: 4},
		},
		reqTimeout: reqTimeout,
		ctx:        ctx,
		cancel:     cancel,
	}
}

// Stop cancels every exchange in flight and returns once their goroutines
// have exited. Afterwards no exchange calls its done: one that was in
// flight, or that starts later, is dropped. Stop may be called more than
// once.
func (n *WallNet) Stop() {
	n.mu.Lock()
	n.cancel()
	n.mu.Unlock()
	n.exchanges.Wait()
}

// start counts a new exchange goroutine, reporting false once the network
// has stopped.
func (n *WallNet) start() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.ctx.Err() != nil {
		return false
	}
	n.exchanges.Add(1)
	return true
}

// SetURL announces (or updates) a peer's base URL, e.g. "http://127.0.0.1:7101".
// An empty URL marks the peer unreachable.
func (n *WallNet) SetURL(name, base string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.urls[name] = base
}

func (n *WallNet) url(name string) string {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.urls[name]
}

// SetLink installs a fault on the directed link from→to (zero value heals).
func (n *WallNet) SetLink(from, to string, f LinkFault) {
	g := n.gate(from + "->" + to)
	g.mu.Lock()
	g.f = f
	g.mu.Unlock()
}

func (n *WallNet) gate(key string) *wallGate {
	n.mu.Lock()
	defer n.mu.Unlock()
	g := n.gates[key]
	if g == nil {
		g = &wallGate{}
		if n.seed != nil {
			g.drop = n.seed.Split("net/drop/" + key)
		}
		n.gates[key] = g
	}
	return g
}

// Transport returns the directed-link transport for an owner component.
// locked must run its argument inside the owner's execution context (the
// component mutex); RPC completions re-enter through it.
func (n *WallNet) Transport(from, to string, locked func(func())) Transport {
	return &wallLink{n: n, to: to, gate: n.gate(from + "->" + to), locked: locked}
}

type wallLink struct {
	n      *WallNet
	to     string
	gate   *wallGate
	locked func(func())
}

// RoundTrip implements Transport. The exchange runs on its own goroutine so
// the caller's lock is never held across network I/O; done re-enters via
// locked. A dropped exchange, and one on a stopped network, spawns nothing
// and never calls done.
func (l *wallLink) RoundTrip(req Request, done func(Response, error)) {
	f, dropped := l.gate.roll()
	if dropped || !l.n.start() {
		return
	}
	body := append([]byte(nil), req.Body...)
	go func() {
		defer l.n.exchanges.Done()
		resp, err := l.exchange(req, body, f)
		l.locked(func() {
			if l.n.ctx.Err() == nil { // Stop drops a late reply
				done(resp, err)
			}
		})
	}()
}

// exchange carries one request over the link under fault f. Stop cuts
// both its delay and its HTTP request short.
func (l *wallLink) exchange(req Request, body []byte, f LinkFault) (Response, error) {
	ctx := l.n.ctx
	if f.Delay > 0 {
		t := time.NewTimer(f.Delay)
		defer t.Stop()
		select {
		case <-t.C:
		case <-ctx.Done():
			return Response{}, ctx.Err()
		}
	}
	if f.Refuse {
		return Response{}, ErrRefused
	}
	base := l.n.url(l.to)
	if base == "" {
		return Response{}, ErrRefused
	}
	ctx, cancel := context.WithTimeout(ctx, l.n.reqTimeout)
	defer cancel()
	hreq, err := http.NewRequestWithContext(ctx, req.Method, base+req.Path, bytes.NewReader(body))
	if err != nil {
		return Response{}, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := l.n.client.Do(hreq)
	if err != nil {
		return Response{}, err
	}
	respBody, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return Response{}, err
	}
	return Response{Status: resp.StatusCode, Body: respBody}, nil
}
