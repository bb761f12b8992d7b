package service

import (
	"net/http"
	"strconv"
	"testing"
	"time"

	"nostop/internal/metrics"
	"nostop/internal/ratetrace"
	"nostop/internal/rng"
	"nostop/internal/sim"
)

// pollTarget is a running engine behind a zero-latency SimNet link, and
// the two requests its controller polls it with every interval: /status,
// and a /batches?since= past the newest report, the empty reply of a
// controller that is keeping up. done copies the reply body into a reused
// buffer, since the transport's is valid only until done returns.
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
	p.done = func(r Response, err error) {
		p.resp.Status, p.resp.Body, p.err = r.Status, append(p.resp.Body[:0], r.Body...), err
	}
	return p
}

// poll delivers one request and its reply at the current instant.
func (p *pollTarget) poll(tb testing.TB, req Request) {
	p.resp.Status, p.err = 0, nil
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
	statusPollAllocs  = 0
	batchesPollAllocs = 0
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

// callTarget is a broker behind a seeded SimNet link and the engine's
// client to it, set up as the soak sets them up: a POST /fetch whose reply
// done decodes, as the engine does.
type callTarget struct {
	clock *sim.Clock
	link  *simLink
	c     *Client
	body  []byte
	resp  fetchResponse
	calls int
	err   error
	done  func([]byte, error)
}

func newCallTarget(tb testing.TB) *callTarget {
	clock := sim.NewClock()
	net := NewSimNet(clock, rng.New(5).Split("net"))
	b := NewBrokerService(BrokerOptions{Clock: clock, Trace: ratetrace.Constant{Rate: 1000}, Metrics: metrics.NewRegistry()})
	if err := b.Start(); err != nil {
		tb.Fatal(err)
	}
	net.Register(PeerBroker, b.Handler())
	t := &callTarget{clock: clock, link: net.link(PeerEngine, PeerBroker)}
	t.c = NewClient(PeerEngine, PeerBroker, SimTimebase{Clock: clock}, t.link, ClientOptions{
		Timeout: 300 * time.Millisecond, MaxAttempts: 2,
		BackoffBase: 100 * time.Millisecond, BackoffMax: time.Second,
		BreakerThreshold: 3, BreakerCooldown: 2 * time.Second,
		Jitter: rng.New(5).Split("jitter"), Metrics: metrics.NewRegistry(),
	})
	t.body = fetchRequest{Consumer: "engine-0", Max: 5000}.appendJSON(nil)
	t.done = func(body []byte, err error) {
		t.calls++
		t.err = err
		if err == nil {
			t.resp = fetchResponse{}
			t.err = unmarshal(body, &t.resp)
		}
	}
	return t
}

// call runs one Call to completion. With delay set, the first attempt's
// exchange is held past its deadline, so the call times out, backs off
// and succeeds on the retry; the late reply lands before call returns.
func (t *callTarget) call(tb testing.TB, delay time.Duration) {
	t.calls, t.err = 0, nil
	t.link.fault.Delay = delay
	t.c.Call("POST", "/fetch", t.body, t.done)
	t.link.fault.Delay = 0
	t.clock.RunUntil(t.clock.Now() + sim.Time(2*time.Second))
	if t.calls != 1 || t.err != nil {
		tb.Fatalf("call with delay %v: done ran %d times, err %v", delay, t.calls, t.err)
	}
}

// TestAllocsCall pins a full Call through SimNet to a broker and back to
// the caller's decode at zero allocations once warm: a plain success, and
// a first attempt held past its deadline followed by one successful retry.
func TestAllocsCall(t *testing.T) {
	for _, delay := range []time.Duration{0, 500 * time.Millisecond} {
		ct := newCallTarget(t)
		ct.call(t, delay) // warm the records and buffers
		retries := ct.c.mRetries.Value()
		allocs := testing.AllocsPerRun(100, func() { ct.call(t, delay) })
		if allocs > 0 {
			t.Errorf("Call with first-attempt delay %v allocates %.1f/op, budget 0", delay, allocs)
		}
		if got := ct.c.mRetries.Value() - retries; (delay > 0) != (got > 0) {
			t.Errorf("Call with first-attempt delay %v retried %v times in the measured runs", delay, got)
		}
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
