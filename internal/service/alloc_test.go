package service

import (
	"net/http"
	"strconv"
	"testing"
	"time"

	"nostop/internal/sim"
)

// pollTarget is a running engine behind a zero-latency SimNet link, and
// the two requests its controller polls it with every interval: /status,
// and a /batches?since= past the newest report, the empty reply of a
// controller that is keeping up.
type pollTarget struct {
	clock   *sim.Clock
	tr      Transport
	status  Request
	batches Request
	resp    Response
	err     error
	done    func(Response, error)
}

func newPollTarget(tb testing.TB) *pollTarget {
	tb.Helper()
	c := newSoakCluster(tb, 3)
	if err := c.Start(); err != nil {
		tb.Fatal(err)
	}
	c.RunSim(2 * time.Minute)
	es := c.Component(PeerEngine).(*EngineService)
	latest, ok := es.col.Latest()
	if !ok {
		tb.Fatal("no batches after two minutes")
	}
	p := &pollTarget{
		clock:   c.Clock(),
		status:  Request{Method: "GET", Path: "/status"},
		batches: Request{Method: "GET", Path: "/batches?since=" + strconv.FormatInt(latest.BatchID, 10)},
	}
	net := NewSimNet(p.clock, nil)
	net.Register(PeerEngine, es.Handler())
	p.tr = net.Transport(PeerController, PeerEngine)
	p.done = func(r Response, err error) { p.resp, p.err = r, err }
	return p
}

// poll delivers one request and its reply at the current instant.
func (p *pollTarget) poll(tb testing.TB, req Request) {
	p.resp, p.err = Response{}, nil
	p.tr.RoundTrip(req, p.done)
	p.clock.RunUntil(p.clock.Now())
	if p.err != nil || p.resp.Status != http.StatusOK {
		tb.Fatalf("%s %s: %d %q, %v", req.Method, req.Path, p.resp.Status, p.resp.Body, p.err)
	}
}

// raceEnabled is set by race_test.go under the race detector.
var raceEnabled bool

// Allocation budgets of one poll through SimNet, request to copied reply.
const (
	statusPollAllocs  = 4
	batchesPollAllocs = 7
)

// TestAllocsSimNetPoll pins what one controller poll allocates on its way
// through SimNet to a running engine and back.
func TestAllocsSimNetPoll(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops pooled reply buffers at random under the race detector")
	}
	p := newPollTarget(t)
	for _, tc := range []struct {
		req    Request
		budget float64
	}{
		{p.status, statusPollAllocs},
		{p.batches, batchesPollAllocs},
	} {
		p.poll(t, tc.req) // warm the reply buffers
		allocs := testing.AllocsPerRun(200, func() { p.poll(t, tc.req) })
		if allocs > tc.budget {
			t.Errorf("GET %s allocates %.1f/op, budget %.0f", tc.req.Path, allocs, tc.budget)
		}
	}
	if string(p.resp.Body) != "null\n" {
		t.Fatalf("/batches past the newest report gave %q, want null", p.resp.Body)
	}
}

// BenchmarkSimNetPoll measures one controller poll through SimNet to a
// running engine: a /status, and an empty /batches?since=.
func BenchmarkSimNetPoll(b *testing.B) {
	p := newPollTarget(b)
	for _, bc := range []struct {
		name string
		req  Request
	}{
		{"status", p.status},
		{"batches-since", p.batches},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				p.poll(b, bc.req)
			}
		})
	}
}
