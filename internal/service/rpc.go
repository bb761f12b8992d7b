package service

import (
	"fmt"
	"time"

	"nostop/internal/metrics"
	"nostop/internal/rng"
	"nostop/internal/sim"
	"nostop/internal/tracing"
)

// Request is one JSON-over-HTTP exchange's request half.
type Request struct {
	Method string
	Path   string
	Body   []byte
}

// Response is the reply half. Status 0 means no reply arrived.
type Response struct {
	Status int
	Body   []byte
}

// Transport delivers a request to a peer and invokes done exactly once with
// the outcome — or never, if the exchange is dropped (the client's deadline
// covers that case). done must be invoked inside the calling component's
// execution context (sim event loop or component mutex). The transport
// copies req.Body before RoundTrip returns. Response.Body is valid only
// until done returns: SimNet reuses the buffer for a later exchange, so a
// caller that keeps the body copies it inside done.
type Transport interface {
	RoundTrip(req Request, done func(Response, error))
}

// ClientOptions tunes the resilient RPC client. Zero values select the
// defaults noted per field.
type ClientOptions struct {
	// Timeout is the per-attempt deadline (default 1s).
	Timeout time.Duration
	// MaxAttempts bounds attempts per Call, first try included (default 3).
	MaxAttempts int
	// BackoffBase is the first retry delay (default 100ms); attempt n waits
	// base·2^(n-1), capped at BackoffMax (default 2s), jittered to
	// [d/2, d) so synchronized retry storms decorrelate.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// BreakerThreshold is the consecutive-failure count that opens the
	// circuit (default 5); BreakerCooldown is how long it stays open before
	// admitting a half-open probe (default 5s).
	BreakerThreshold int
	BreakerCooldown  time.Duration
	// Jitter seeds backoff jitter. In sim mode pass a split of the run's
	// root stream so retry schedules replay deterministically; nil disables
	// jitter (full backoff, still deterministic).
	Jitter *rng.Stream
	// Metrics and Trace observe attempts, retries, and breaker transitions;
	// both optional. Pid selects the owner's trace lane.
	Metrics *metrics.Registry
	Trace   *traceSink
	Pid     int
}

func (o *ClientOptions) fill() {
	if o.Timeout <= 0 {
		o.Timeout = time.Second
	}
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = 3
	}
	if o.BackoffBase <= 0 {
		o.BackoffBase = 100 * time.Millisecond
	}
	if o.BackoffMax <= 0 {
		o.BackoffMax = 2 * time.Second
	}
	if o.BreakerThreshold <= 0 {
		o.BreakerThreshold = 5
	}
	if o.BreakerCooldown <= 0 {
		o.BreakerCooldown = 5 * time.Second
	}
}

type breakerState int

const (
	breakerClosed breakerState = iota
	breakerOpen
	breakerHalfOpen
)

func (s breakerState) String() string {
	switch s {
	case breakerOpen:
		return "open"
	case breakerHalfOpen:
		return "half-open"
	default:
		return "closed"
	}
}

// Client is the resilient RPC client: per-attempt deadlines, bounded
// exponential backoff with jitter, and a consecutive-failure circuit
// breaker, all scheduled through a Timebase so the identical code path is
// deterministic in sim mode and real-time in wall mode.
//
// A Client belongs to one component and must only be used from that
// component's execution context; it holds no locks of its own.
type Client struct {
	link string // "owner->peer", the metrics/trace identity
	tb   Timebase
	tr   Transport
	o    ClientOptions

	state       breakerState
	consecFails int
	openedAt    sim.Time
	probeBusy   bool
	free        *callAttempt // recycled attempt records

	mAttempts  *metrics.Counter
	mFailures  *metrics.Counter
	mRetries   *metrics.Counter
	mFastFails *metrics.Counter
	mTrans     [3]*metrics.Counter // indexed by breakerState
	gOpen      *metrics.Gauge
}

// callAttempt is one attempt of a Call, with its transport, deadline and
// backoff callbacks bound once when the record is built. Records recycle
// through the client's free list, and one goes back only once it has
// settled, its transport callback has come back and no retry is pending
// on it: a late reply to a timed-out attempt then always lands on its own
// record, which ignores it, and never on a later attempt. A dropped
// exchange never calls back, so its record stays out of the list and the
// GC reclaims it.
type callAttempt struct {
	c            *Client
	method, path string
	body         []byte
	n            int
	done         func([]byte, error)

	settled  bool
	inFlight bool  // the transport has not called reply yet
	retrying bool  // the backoff timer is pending
	deadline Timer // canceled when the attempt settles
	err      error // the failure a pending retry reports if the circuit opens

	reply   func(Response, error)
	timeout func()
	retry   func()
	next    *callAttempt
}

// NewClient builds a client owned by component owner calling component peer.
func NewClient(owner, peer string, tb Timebase, tr Transport, o ClientOptions) *Client {
	o.fill()
	c := &Client{link: owner + "->" + peer, tb: tb, tr: tr, o: o}
	if reg := o.Metrics; reg != nil {
		l := metrics.L("link", c.link)
		c.mAttempts = reg.Counter("nostop_rpc_attempts_total", "RPC attempts sent", l)
		c.mFailures = reg.Counter("nostop_rpc_attempt_failures_total", "RPC attempts that timed out or errored", l)
		c.mRetries = reg.Counter("nostop_rpc_retries_total", "RPC attempts that were backed-off retries", l)
		c.mFastFails = reg.Counter("nostop_rpc_fastfail_total", "RPC calls rejected locally by an open circuit", l)
		for st := breakerClosed; st <= breakerHalfOpen; st++ {
			c.mTrans[st] = reg.Counter("nostop_rpc_breaker_transitions_total",
				"Circuit breaker state transitions", l, metrics.L("to", st.String()))
		}
		c.gOpen = reg.Gauge("nostop_rpc_breaker_open", "1 while the circuit is open", l)
	}
	return c
}

// State returns the breaker state string (for snapshots and tests).
func (c *Client) State() string { return c.state.String() }

// Call performs one logical RPC: it retries transient failures with jittered
// backoff, fails fast while the breaker is open, and finally invokes done
// exactly once with the response body or the terminal error. A 4xx reply is
// delivered as an error but counts as wire success (the peer is alive).
// body must stay unchanged until done is invoked, since a retry sends it
// again. The body passed to done is valid only until done returns (see
// Transport).
func (c *Client) Call(method, path string, body []byte, done func([]byte, error)) {
	if !c.admit() {
		c.mFastFails.Inc()
		done(nil, ErrCircuitOpen)
		return
	}
	c.attempt(method, path, body, 1, done)
}

// admit applies the breaker policy, moving open→half-open after the
// cooldown and admitting a single in-flight probe while half-open.
func (c *Client) admit() bool {
	if c.state == breakerOpen && c.tb.Now()-c.openedAt >= sim.Time(c.o.BreakerCooldown) {
		c.setState(breakerHalfOpen)
		c.probeBusy = false
	}
	switch c.state {
	case breakerClosed:
		return true
	case breakerHalfOpen:
		if c.probeBusy {
			return false
		}
		c.probeBusy = true
		return true
	default:
		return false
	}
}

// attempt sends attempt n of a call: the deadline first, then the
// exchange.
func (c *Client) attempt(method, path string, body []byte, n int, done func([]byte, error)) {
	c.mAttempts.Inc()
	a := c.free
	if a != nil {
		c.free = a.next
		a.next = nil
	} else {
		a = &callAttempt{c: c}
		a.reply, a.timeout, a.retry = a.onReply, a.onTimeout, a.onRetry
	}
	a.method, a.path, a.body, a.n, a.done = method, path, body, n, done
	a.settled, a.inFlight = false, true
	a.deadline = c.tb.After(c.o.Timeout, a.timeout)
	c.tr.RoundTrip(Request{Method: method, Path: path, Body: body}, a.reply)
}

// release returns a to the free list once nothing can reach it any more.
func (c *Client) release(a *callAttempt) {
	if !a.settled || a.inFlight || a.retrying {
		return
	}
	a.body, a.done, a.err = nil, nil, nil
	a.next = c.free
	c.free = a
}

func (a *callAttempt) onReply(resp Response, err error) {
	a.inFlight = false
	if a.settled {
		a.c.release(a) // a late reply to a timed-out attempt
		return
	}
	a.finish(resp, err)
}

func (a *callAttempt) onTimeout() { a.finish(Response{}, ErrTimeout) }

// finish settles the attempt: the deadline's cancel, then the caller's
// done or the backoff timer.
func (a *callAttempt) finish(resp Response, err error) {
	c := a.c
	a.settled = true
	c.tb.Cancel(a.deadline)
	if err == nil && resp.Status < 500 {
		c.onSuccess()
		if resp.Status >= 400 {
			a.done(nil, fmt.Errorf("service: %s %s: %s (status %d)",
				a.method, a.path, string(resp.Body), resp.Status))
		} else {
			a.done(resp.Body, nil)
		}
		c.release(a)
		return
	}
	if err == nil {
		err = fmt.Errorf("service: %s %s: status %d", a.method, a.path, resp.Status)
	}
	c.mFailures.Inc()
	c.onFailure()
	if a.n >= c.o.MaxAttempts || c.state != breakerClosed {
		a.done(nil, fmt.Errorf("%s %s attempt %d/%d: %w", a.method, a.path, a.n, c.o.MaxAttempts, err))
		c.release(a)
		return
	}
	c.mRetries.Inc()
	a.retrying, a.err = true, err
	c.tb.After(c.backoff(a.n), a.retry)
}

// onRetry sends the next attempt on a fresh record, after the backoff.
func (a *callAttempt) onRetry() {
	c := a.c
	a.retrying = false
	if !c.admit() {
		c.mFastFails.Inc()
		a.done(nil, fmt.Errorf("%w (while retrying: %v)", ErrCircuitOpen, a.err))
	} else {
		c.attempt(a.method, a.path, a.body, a.n+1, a.done)
	}
	c.release(a)
}

// backoff returns the jittered delay before attempt n+1.
func (c *Client) backoff(n int) time.Duration {
	d := c.o.BackoffBase << (n - 1)
	if d > c.o.BackoffMax || d <= 0 { // <=0 guards shift overflow
		d = c.o.BackoffMax
	}
	if c.o.Jitter != nil {
		d = d/2 + time.Duration(c.o.Jitter.Float64()*float64(d/2))
	}
	return d
}

func (c *Client) onSuccess() {
	c.consecFails = 0
	if c.state == breakerHalfOpen {
		c.probeBusy = false
		c.setState(breakerClosed)
	}
}

func (c *Client) onFailure() {
	switch c.state {
	case breakerHalfOpen:
		c.probeBusy = false
		c.openedAt = c.tb.Now()
		c.setState(breakerOpen)
	case breakerClosed:
		c.consecFails++
		if c.consecFails >= c.o.BreakerThreshold {
			c.openedAt = c.tb.Now()
			c.setState(breakerOpen)
		}
	}
}

func (c *Client) setState(s breakerState) {
	if s == c.state {
		return
	}
	c.state = s
	c.consecFails = 0
	c.mTrans[s].Inc()
	if c.gOpen != nil {
		if s == breakerOpen {
			c.gOpen.Set(1)
		} else {
			c.gOpen.Set(0)
		}
	}
	if c.o.Trace != nil {
		c.o.Trace.instant(c.o.Pid, TidRPC, "rpc", "breaker-"+s.String(),
			tracing.Args{"link": c.link})
	}
}
