package service

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/url"
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
	req      simRequest
	rw       simResponse
	free     *simExchange // recycled exchange records
}

// simExchange is one exchange in flight on a link: the request, copied
// into a buffer the record reuses, the caller's done, and the reply status
// and body, copied into a second reused buffer. Its deliver and reply
// callbacks are bound once when the record is built, and the record goes
// back on the link's free list after done returns, so a reply body is
// valid only until then (see Transport).
type simExchange struct {
	l            *simLink
	method, path string
	body         []byte
	done         func(Response, error)
	status       int
	reply        []byte

	deliverFn func()
	replyFn   func()
	next      *simExchange
}

// simRequest is the http.Request a link refills for every delivery it
// makes, with the URL, body reader and header it points to. Like the
// response writer it is safe to reuse: a delivery runs its handler to
// completion on the event loop, and a handler's own RPCs are scheduled on
// the clock, never delivered inline, so no two handlers hold one link's
// request at once.
type simRequest struct {
	req    http.Request
	url    url.URL
	body   simBody
	header http.Header
}

// simBody is a non-empty request body. Close does nothing, as on the
// io.NopCloser http.NewRequest wraps a bytes.Reader in.
type simBody struct{ bytes.Reader }

// Close implements io.Closer.
func (*simBody) Close() error { return nil }

// fill readies the request for one delivery with exactly the fields
// http.NewRequest(method, path, body) sets that a handler or a ServeMux
// reads: the method, URL.Path and URL.RawQuery, the protocol, the body
// (http.NoBody when empty), its length and an empty header. It reports
// false for anything but GET and POST, the methods the components serve,
// and for a path splitPath does not carry verbatim.
func (q *simRequest) fill(method, path string, body []byte) bool {
	if method != http.MethodGet && method != http.MethodPost {
		return false
	}
	p, query, ok := splitPath(path)
	if !ok {
		return false
	}
	q.url = url.URL{Path: p, RawQuery: query}
	clear(q.header)
	var rc io.ReadCloser = http.NoBody
	if len(body) > 0 {
		q.body.Reset(body)
		rc = &q.body
	}
	q.req = http.Request{
		Method:        method,
		URL:           &q.url,
		Proto:         "HTTP/1.1",
		ProtoMajor:    1,
		ProtoMinor:    1,
		Header:        q.header,
		Body:          rc,
		ContentLength: int64(len(body)),
	}
	return true
}

// splitPath splits a request path at its first '?' into the URL.Path and
// URL.RawQuery that url.Parse gives it. It reports false unless url.Parse
// gives exactly those two fields and nothing else: the path must be
// absolute, must not start with "//" (an authority), and must hold only
// letters, digits and -._~$&+,/:;=@ (bytes that need no escaping, so
// RawPath stays empty); the query, if there is a '?', must be non-empty
// (an empty one sets ForceQuery) and printable ASCII other than '#' (a
// fragment).
func splitPath(s string) (path, query string, ok bool) {
	if len(s) == 0 || s[0] != '/' || len(s) > 1 && s[1] == '/' {
		return "", "", false
	}
	i := 0
	for ; i < len(s) && s[i] != '?'; i++ {
		if !pathByte[s[i]] {
			return "", "", false
		}
	}
	if i == len(s) {
		return s, "", true
	}
	query = s[i+1:]
	if query == "" {
		return "", "", false
	}
	for j := 0; j < len(query); j++ {
		if c := query[j]; c < 0x20 || c > 0x7e || c == '#' {
			return "", "", false
		}
	}
	return s[:i], query, true
}

// pathByte marks the bytes splitPath carries verbatim in a path.
var pathByte = [256]bool{}

func init() {
	for c := '0'; c <= '9'; c++ {
		pathByte[c] = true
	}
	for c := 'a'; c <= 'z'; c++ {
		pathByte[c] = true
		pathByte[c-'a'+'A'] = true
	}
	for _, c := range []byte("-._~$&+,/:;=@") {
		pathByte[c] = true
	}
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
		l = &simLink{n: n, from: from, to: to,
			req: simRequest{header: make(http.Header)},
			rw:  simResponse{header: make(http.Header)}}
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
// with an independent latency draw. The peer's handler is served the
// link's refilled request (simRequest); a method or path it cannot carry
// as http.NewRequest would build it fails the exchange with an error
// instead, without reaching the peer.
func (l *simLink) RoundTrip(req Request, done func(Response, error)) {
	f := l.fault
	if f.DropProb > 0 && l.drop != nil && l.drop.Float64() < f.DropProb {
		return
	}
	x := l.free
	if x != nil {
		l.free = x.next
		x.next = nil
	} else {
		x = &simExchange{l: l}
		x.deliverFn, x.replyFn = x.deliver, x.sendReply
	}
	x.method, x.path, x.done = req.Method, req.Path, done
	x.body = append(x.body[:0], req.Body...)
	l.n.clock.After(l.latency()+f.Delay, x.deliverFn)
}

// deliver serves the request to the peer's handler and schedules the reply.
func (x *simExchange) deliver() {
	l := x.l
	if l.fault.Refuse {
		x.finish(Response{}, ErrRefused)
		return
	}
	p := l.n.peers[l.to]
	if p == nil || p.down || p.handler == nil {
		x.finish(Response{}, ErrRefused)
		return
	}
	if !l.req.fill(x.method, x.path, x.body) {
		x.finish(Response{}, fmt.Errorf("service: sim transport carries GET and POST to a plain path, not %s %q",
			x.method, x.path))
		return
	}
	rw := &l.rw
	rw.reset()
	p.handler.ServeHTTP(rw, &l.req.req)
	x.status = rw.status()
	x.reply = append(x.reply[:0], rw.body.Bytes()...)
	l.n.clock.After(l.latency(), x.replyFn)
}

func (x *simExchange) sendReply() { x.finish(Response{Status: x.status, Body: x.reply}, nil) }

// finish hands the outcome to done, then recycles the record; a reply
// buffer grown past 64 KiB, by a whole-history /batches, is not kept.
func (x *simExchange) finish(resp Response, err error) {
	x.done(resp, err)
	x.done = nil
	if cap(x.reply) > 1<<16 {
		x.reply = nil
	}
	x.next = x.l.free
	x.l.free = x
}
