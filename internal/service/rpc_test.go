package service

import (
	"errors"
	"fmt"
	"net/http"
	"testing"
	"time"

	"nostop/internal/rng"
	"nostop/internal/sim"
)

// okHandler answers every request with 200 {"ok":true}.
func okHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, map[string]bool{"ok": true})
	})
	return mux
}

func newTestClient(t *testing.T, o ClientOptions) (*sim.Clock, *SimNet, *Client) {
	t.Helper()
	clock := sim.NewClock()
	net := NewSimNet(clock, rng.New(7).Split("net"))
	net.Register("peer", okHandler())
	o.Jitter = rng.New(7).Split("jitter")
	return clock, net, NewClient("me", "peer", SimTimebase{Clock: clock}, net.Transport("me", "peer"), o)
}

// call drives one Call to completion on the sim clock and returns its
// terminal error.
func call(clock *sim.Clock, c *Client) error {
	var got error
	fired := false
	c.Call("GET", "/healthz", nil, func(_ []byte, err error) {
		fired = true
		got = err
	})
	clock.RunUntil(clock.Now() + sim.Time(time.Minute))
	if !fired {
		return errors.New("call never completed")
	}
	return got
}

func TestClientSuccess(t *testing.T) {
	clock, _, c := newTestClient(t, ClientOptions{})
	if err := call(clock, c); err != nil {
		t.Fatalf("healthy call failed: %v", err)
	}
	if got := c.State(); got != "closed" {
		t.Fatalf("breaker %s after success, want closed", got)
	}
}

func TestClientRetriesThenRecovers(t *testing.T) {
	clock, net, c := newTestClient(t, ClientOptions{
		Timeout: 100 * time.Millisecond, MaxAttempts: 3,
		BackoffBase: 50 * time.Millisecond, BreakerThreshold: 10,
	})
	// Drop the first attempt's exchange ~always; the retry succeeds once
	// the fault is cleared mid-call by a scheduled heal.
	net.SetLink("me", "peer", LinkFault{DropProb: 1})
	clock.After(120*time.Millisecond, func() { net.SetLink("me", "peer", LinkFault{}) })
	if err := call(clock, c); err != nil {
		t.Fatalf("call with one dropped attempt failed: %v", err)
	}
	if v := c.mRetries.Value(); v != 0 { // no registry attached: nil counter
		t.Fatalf("nil counter returned %v", v)
	}
}

func TestClientBreakerOpensAndFastFails(t *testing.T) {
	clock, net, c := newTestClient(t, ClientOptions{
		Timeout: 100 * time.Millisecond, MaxAttempts: 2,
		BackoffBase: 50 * time.Millisecond, BreakerThreshold: 3,
		// Longer than the call helper's 1-minute drain, so the breaker is
		// still inside its cooldown when the fast-fail is asserted.
		BreakerCooldown: 10 * time.Minute,
	})
	net.SetDown("peer", true)
	// Two calls × two attempts = 4 failures ≥ threshold 3: breaker opens.
	for i := 0; i < 2; i++ {
		if err := call(clock, c); err == nil {
			t.Fatal("call against a down peer succeeded")
		}
	}
	if got := c.State(); got != "open" {
		t.Fatalf("breaker %s after %d failures, want open", got, c.consecFails)
	}
	// Within the cooldown: instantaneous local rejection.
	var fastErr error
	c.Call("GET", "/healthz", nil, func(_ []byte, err error) { fastErr = err })
	if !errors.Is(fastErr, ErrCircuitOpen) {
		t.Fatalf("fast-fail error = %v, want ErrCircuitOpen", fastErr)
	}
}

func TestClientHalfOpenProbeRecovery(t *testing.T) {
	clock, net, c := newTestClient(t, ClientOptions{
		Timeout: 100 * time.Millisecond, MaxAttempts: 1,
		BreakerThreshold: 2, BreakerCooldown: 1 * time.Second,
	})
	net.SetDown("peer", true)
	for i := 0; i < 2; i++ {
		_ = call(clock, c)
	}
	if got := c.State(); got != "open" {
		t.Fatalf("breaker %s, want open", got)
	}
	// Probe while still down: half-open reopens.
	clock.RunUntil(clock.Now() + sim.Time(2*time.Second))
	if err := call(clock, c); err == nil {
		t.Fatal("probe against a down peer succeeded")
	}
	if got := c.State(); got != "open" {
		t.Fatalf("breaker %s after failed probe, want open", got)
	}
	// Peer recovers: next probe closes the breaker.
	net.SetDown("peer", false)
	clock.RunUntil(clock.Now() + sim.Time(2*time.Second))
	if err := call(clock, c); err != nil {
		t.Fatalf("probe after recovery failed: %v", err)
	}
	if got := c.State(); got != "closed" {
		t.Fatalf("breaker %s after recovery, want closed", got)
	}
}

func TestClientDeterministicRetrySchedule(t *testing.T) {
	// Same seed ⇒ identical retry timing, event for event.
	run := func() []sim.Time {
		clock := sim.NewClock()
		net := NewSimNet(clock, rng.New(11).Split("net"))
		net.Register("peer", okHandler())
		net.SetDown("peer", true)
		c := NewClient("me", "peer", SimTimebase{Clock: clock}, net.Transport("me", "peer"),
			ClientOptions{Timeout: 200 * time.Millisecond, MaxAttempts: 4,
				BackoffBase: 100 * time.Millisecond, BreakerThreshold: 10,
				Jitter: rng.New(11).Split("jitter")})
		var marks []sim.Time
		done := func(_ []byte, _ error) { marks = append(marks, clock.Now()) }
		c.Call("GET", "/x", nil, done)
		c.Call("GET", "/y", nil, done)
		clock.RunUntil(sim.Time(time.Minute))
		return marks
	}
	a, b := run(), run()
	if len(a) != 2 || len(b) != 2 {
		t.Fatalf("calls did not complete: %d, %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("retry schedule diverged: run1 %v run2 %v", a, b)
		}
	}
}

func TestFeedTraceConservesRecords(t *testing.T) {
	f := &FeedTrace{}
	sec := func(s float64) sim.Time { return sim.Time(s * float64(time.Second)) }
	f.Add(sec(1), time.Second, 1000)
	// Overlapping add (latency jitter): clipped, count preserved.
	f.Add(sec(1.5), time.Second, 500)
	if f.Total() != 1500 {
		t.Fatalf("total %d, want 1500", f.Total())
	}
	// Integrate over the full span with a Stepper-aware walk.
	total := 0.0
	for t0 := sec(0); t0 < sec(5); {
		next := f.NextChange(t0)
		if next > sec(5) {
			next = sec(5)
		}
		total += f.RateAt(t0) * time.Duration(next-t0).Seconds()
		t0 = next
	}
	if total < 1499.9 || total > 1500.1 {
		t.Fatalf("integrated %f records, want 1500", total)
	}
	if got := f.RateAt(sec(0.5)); got != 0 {
		t.Fatalf("rate before first segment = %f, want 0", got)
	}
	if got := f.NextChange(sec(10)); got != sim.Infinity {
		t.Fatalf("NextChange past all segments = %v, want Infinity", got)
	}
}

// TestLateReplyDoesNotSettleRetry holds a call's first attempt past its
// deadline, so its reply lands while the retry is in flight, and a second
// call is in flight then too. Each call must complete once, with its own
// reply: the late one must settle neither the retry nor the other call.
// A call started after the late reply must get its own reply as well, and
// so must one started between another call's late reply and its retry.
func TestLateReplyDoesNotSettleRetry(t *testing.T) {
	clock := sim.NewClock()
	net := NewSimNet(clock, nil) // zero latency: only the link faults below
	served := 0
	mux := http.NewServeMux()
	mux.HandleFunc("GET /n", func(w http.ResponseWriter, r *http.Request) {
		served++
		fmt.Fprintf(w, "reply-%d", served)
	})
	net.Register("peer", mux)
	c := NewClient("me", "peer", SimTimebase{Clock: clock}, net.Transport("me", "peer"), ClientOptions{
		Timeout: 100 * time.Millisecond, MaxAttempts: 2,
		BackoffBase: 10 * time.Millisecond, BreakerThreshold: 10,
	})
	got := map[string][]string{}
	call := func(name string) func() {
		return func() {
			c.Call("GET", "/n", nil, func(body []byte, err error) {
				if err != nil {
					t.Errorf("call %s: %v", name, err)
				}
				got[name] = append(got[name], string(body))
			})
		}
	}
	link := func(f LinkFault) func() { return func() { net.SetLink("me", "peer", f) } }
	ms := func(n int) sim.Time { return sim.Time(n) * sim.Time(time.Millisecond) }
	// a's first attempt is served at 150 ms, 50 ms past its deadline; its
	// retry goes at 110 ms and is served at 190 ms. b goes at 120 ms and
	// is served at 200 ms; c goes at 300 ms, after everything.
	link(LinkFault{Delay: 150 * time.Millisecond})()
	call("a")()
	clock.At(ms(105), link(LinkFault{Delay: 80 * time.Millisecond}))
	clock.At(ms(120), call("b"))
	clock.At(ms(250), link(LinkFault{}))
	clock.At(ms(300), call("c"))
	// d's first attempt times out at 500 ms and is served at 505 ms, before
	// its retry at 510 ms; e goes at 507 ms, in between.
	clock.At(ms(400), link(LinkFault{Delay: 105 * time.Millisecond}))
	clock.At(ms(400), call("d"))
	clock.At(ms(401), link(LinkFault{}))
	clock.At(ms(507), call("e"))
	clock.RunUntil(sim.Time(time.Second))

	want := map[string][]string{
		"a": {"reply-2"}, "b": {"reply-3"}, "c": {"reply-4"}, "d": {"reply-7"}, "e": {"reply-6"},
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("calls completed with %v, want %v", got, want)
	}
	if served != 7 {
		t.Fatalf("peer served %d requests, want 7", served)
	}
}
