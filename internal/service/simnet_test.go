package service

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	"nostop/internal/rng"
	"nostop/internal/sim"
)

// deliver runs one exchange over the SimNet transport to completion and
// returns what the transport handed back, with the body copied inside done
// (it is valid only until done returns).
func deliver(t *testing.T, clock *sim.Clock, tr Transport, req Request) Response {
	t.Helper()
	var resp Response
	var err error
	fired := false
	tr.RoundTrip(req, func(r Response, e error) {
		resp, err, fired = Response{Status: r.Status, Body: append([]byte(nil), r.Body...)}, e, true
	})
	clock.RunUntil(clock.Now() + sim.Time(time.Second))
	if !fired || err != nil {
		t.Fatalf("%s %s: delivered=%v err=%v", req.Method, req.Path, fired, err)
	}
	return resp
}

// TestSimNetDelivery drives three handler outcomes through SimNet and
// checks the status and body the transport delivers, then what a client
// with one attempt and a one-failure breaker makes of them: a 4xx is an
// error from a live peer, a 5xx a failure that opens the circuit.
func TestSimNetDelivery(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /implicit", func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "fine") // no WriteHeader: 200
	})
	mux.HandleFunc("GET /missing", func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "no such batch", http.StatusNotFound)
	})
	mux.HandleFunc("GET /broken", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusInternalServerError)
		io.WriteString(w, "engine on fire")
	})
	for _, tc := range []struct {
		path    string
		status  int
		body    string
		err     string // substring of the client's error; "" for none
		breaker string
	}{
		{"/implicit", http.StatusOK, "fine", "", "closed"},
		{"/missing", http.StatusNotFound, "no such batch\n", "no such batch\n (status 404)", "closed"},
		{"/broken", http.StatusInternalServerError, "engine on fire", "status 500", "open"},
	} {
		t.Run(tc.path, func(t *testing.T) {
			clock := sim.NewClock()
			net := NewSimNet(clock, nil)
			net.Register("peer", mux)
			tr := net.Transport("me", "peer")

			resp := deliver(t, clock, tr, Request{Method: "GET", Path: tc.path})
			if resp.Status != tc.status || string(resp.Body) != tc.body {
				t.Fatalf("delivered %d %q, want %d %q", resp.Status, resp.Body, tc.status, tc.body)
			}

			c := NewClient("me", "peer", SimTimebase{Clock: clock}, tr,
				ClientOptions{MaxAttempts: 1, BreakerThreshold: 1})
			var body []byte
			var err error
			fired := false
			c.Call("GET", tc.path, nil, func(b []byte, e error) {
				body, err, fired = append([]byte(nil), b...), e, true
			})
			clock.RunUntil(clock.Now() + sim.Time(time.Second))
			switch {
			case !fired:
				t.Fatal("call never completed")
			case tc.err == "" && (err != nil || string(body) != tc.body):
				t.Fatalf("call gave %q, %v; want %q, no error", body, err, tc.body)
			case tc.err != "" && (err == nil || !strings.Contains(err.Error(), tc.err)):
				t.Fatalf("call error %v, want one containing %q", err, tc.err)
			}
			if got := c.state.String(); got != tc.breaker {
				t.Fatalf("breaker %s, want %s", got, tc.breaker)
			}
		})
	}
}

// TestSimNetDeliversQueryAndBody checks that the handler sees the method,
// the path with its query string, and a POST body exactly as sent.
func TestSimNetDeliversQueryAndBody(t *testing.T) {
	var method, path, since, body string
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		b, err := io.ReadAll(r.Body)
		if err != nil {
			t.Errorf("read body: %v", err)
		}
		method, path, since, body = r.Method, r.URL.Path, r.URL.Query().Get("since"), string(b)
	})
	clock := sim.NewClock()
	net := NewSimNet(clock, nil)
	net.Register("peer", h)
	tr := net.Transport("me", "peer")

	deliver(t, clock, tr, Request{Method: "GET", Path: "/batches?since=7"})
	if method != "GET" || path != "/batches" || since != "7" || body != "" {
		t.Fatalf("handler saw %s %s since=%q body=%q", method, path, since, body)
	}

	const payload = `{"batchIntervalMs":2000,"numExecutors":6}`
	deliver(t, clock, tr, Request{Method: "POST", Path: "/reconfigure", Body: []byte(payload)})
	if method != "POST" || path != "/reconfigure" || body != payload {
		t.Fatalf("handler saw %s %s body=%q, want POST /reconfigure %q", method, path, body, payload)
	}
}

// TestSimNetMalformedRequest checks that a request net/http cannot build
// fails the exchange, as on the wall transport, without reaching the peer:
// SimNet refuses any path it cannot carry verbatim, and this one has an
// invalid escape.
func TestSimNetMalformedRequest(t *testing.T) {
	clock := sim.NewClock()
	net := NewSimNet(clock, nil)
	net.Register("peer", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t.Error("handler reached with a malformed request")
	}))
	var err error
	fired := false
	net.Transport("me", "peer").RoundTrip(Request{Method: "GET", Path: "/%zz"},
		func(_ Response, e error) { err, fired = e, true })
	clock.RunUntil(clock.Now() + sim.Time(time.Second))
	if !fired || err == nil {
		t.Fatalf("malformed request: delivered=%v err=%v, want an error", fired, err)
	}
}

// seenRequest is what a handler can read of a delivered request.
type seenRequest struct {
	Method, Path, RawPath, RawQuery, Fragment, Host, Proto string
	ForceQuery                                             bool
	ContentLength                                          int64
	Body                                                   string
	NoBody                                                 bool
	Headers                                                int
}

// recordRequest records what r shows a handler, then sets a header on it,
// so a request whose header a later delivery does not clear shows up.
func recordRequest(t *testing.T, r *http.Request) seenRequest {
	t.Helper()
	b, err := io.ReadAll(r.Body)
	if err != nil {
		t.Errorf("read body: %v", err)
	}
	seen := seenRequest{
		Method: r.Method, Path: r.URL.Path, RawPath: r.URL.RawPath, RawQuery: r.URL.RawQuery,
		Fragment: r.URL.Fragment, Host: r.Host, Proto: r.Proto, ForceQuery: r.URL.ForceQuery,
		ContentLength: r.ContentLength, Body: string(b), NoBody: r.Body == http.NoBody,
		Headers: len(r.Header),
	}
	r.Header.Set("X-Seen", "1")
	return seen
}

// TestSimNetRequestMatchesNewRequest crosses methods, paths and bodies over
// one link, so state one delivery leaves behind reaches the next. Where
// SimNet delivers, the handler must see what it sees when served
// http.NewRequest's request; where it refuses, the exchange must fail
// without reaching the handler. The plain paths and the GET and POST
// methods must be delivered.
func TestSimNetRequestMatchesNewRequest(t *testing.T) {
	var seen seenRequest
	reached := false
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		seen, reached = recordRequest(t, r), true
	})
	clock := sim.NewClock()
	net := NewSimNet(clock, nil)
	net.Register("peer", h)
	tr := net.Transport("me", "peer")

	paths := []struct {
		path    string
		deliver bool // GET and POST must reach the handler
	}{
		{"/status", true},
		{"/batches/latest", true},
		{"/", true},
		{"/batches?since=7", true},
		{"/b?x=1&y=2", true},
		{"/b?a+b=c+d", true},
		{"/b?q=%41%zz", true},
		{"/b?x?y=1", true},
		{"/b?sp ace", true},
		{"/a;b=c@d$e:f,g~h.i-j_k&l+m", true},
		{"/a/../b", true},
		{"/%zz", false},
		{"/a%20b", false},
		{"/a b", false},
		{"/a!b", false},
		{"/a#frag", false},
		{"/b?x=1#frag", false},
		{"//host/x", false},
		{"*", false},
		{"", false},
		{"/a?", false},
		{"/caf\u00e9", false},
		{"/b?q=\u00e9", false},
		{"/a\x01", false},
		{"/b?q=\x7f", false},
		{"status", false},
	}
	for _, method := range []string{"GET", "POST", "PUT", "get", ""} {
		for _, p := range paths {
			for _, body := range []string{"", `{"committed":12}`} {
				name := fmt.Sprintf("%s %q body %q", method, p.path, body)
				reached, seen = false, seenRequest{}
				var err error
				fired := false
				tr.RoundTrip(Request{Method: method, Path: p.path, Body: []byte(body)},
					func(_ Response, e error) { err, fired = e, true })
				clock.RunUntil(clock.Now() + sim.Time(time.Second))
				if !fired {
					t.Fatalf("%s: exchange never completed", name)
				}
				if !reached {
					if err == nil {
						t.Errorf("%s: handler not reached, yet no error", name)
					}
					if p.deliver && (method == "GET" || method == "POST") {
						t.Errorf("%s: refused (%v), want it delivered", name, err)
					}
					continue
				}
				if err != nil {
					t.Errorf("%s: handler reached, yet the exchange failed: %v", name, err)
				}
				got := seen
				hreq, nerr := http.NewRequest(method, p.path, strings.NewReader(body))
				if nerr != nil {
					t.Errorf("%s: delivered, but http.NewRequest fails: %v", name, nerr)
					continue
				}
				reached = false
				h.ServeHTTP(httptest.NewRecorder(), hreq)
				if !reached || got != seen {
					t.Errorf("%s: handler saw\n%+v\nwant what http.NewRequest gives\n%+v", name, got, seen)
				}
			}
		}
	}
}

// TestSplitPathMatchesURLParse checks splitPath's rule on every string of
// up to five bytes over an alphabet of the bytes where url.Parse's
// handling changes: where it carries a path, url.Parse must give exactly
// that URL.Path and URL.RawQuery and nothing else.
func TestSplitPathMatchesURLParse(t *testing.T) {
	const alphabet = "/?#%a2! :\x01\xe9"
	var walk func(s string)
	checked, carried := 0, 0
	walk = func(s string) {
		checked++
		if p, q, ok := splitPath(s); ok {
			carried++
			u, err := url.Parse(s)
			if err != nil || *u != (url.URL{Path: p, RawQuery: q}) {
				t.Errorf("splitPath(%q) = %q, %q; url.Parse gives %#v, %v", s, p, q, u, err)
			}
			if whole := p + "?" + q; whole != s && (q != "" || p != s) {
				t.Errorf("splitPath(%q) = %q, %q: not a split of the input", s, p, q)
			}
		}
		if len(s) < 5 {
			for i := 0; i < len(alphabet); i++ {
				walk(s + alphabet[i:i+1])
			}
		}
	}
	walk("")
	t.Logf("splitPath carried %d of %d strings", carried, checked)
	if carried == 0 || carried == checked {
		t.Fatalf("splitPath carried %d of %d strings", carried, checked)
	}
}

// TestSimNetOverlappingExchanges sends a /reconfigure and a /status on one
// link before either is delivered; with seeded latencies one is in flight
// while the other is served, and each must get its own reply.
func TestSimNetOverlappingExchanges(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /reconfigure", func(w http.ResponseWriter, r *http.Request) {
		b, _ := io.ReadAll(r.Body)
		w.WriteHeader(http.StatusAccepted)
		fmt.Fprintf(w, "applied %s", b)
	})
	mux.HandleFunc("GET /status", func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "status ok")
	})
	for seed := uint64(1); seed <= 8; seed++ {
		clock := sim.NewClock()
		net := NewSimNet(clock, rng.New(seed))
		net.Register("engine", mux)
		tr := net.Transport("controller", "engine")
		var reconf, status Response
		var rerr, serr error
		keep := func(r Response) Response { return Response{Status: r.Status, Body: append([]byte(nil), r.Body...)} }
		tr.RoundTrip(Request{Method: "POST", Path: "/reconfigure", Body: []byte(`{"numExecutors":6}`)},
			func(r Response, e error) { reconf, rerr = keep(r), e })
		tr.RoundTrip(Request{Method: "GET", Path: "/status"},
			func(r Response, e error) { status, serr = keep(r), e })
		clock.RunUntil(clock.Now() + sim.Time(time.Second))
		if rerr != nil || reconf.Status != http.StatusAccepted || string(reconf.Body) != `applied {"numExecutors":6}` {
			t.Errorf("seed %d: /reconfigure got %d %q, %v", seed, reconf.Status, reconf.Body, rerr)
		}
		if serr != nil || status.Status != http.StatusOK || string(status.Body) != "status ok" {
			t.Errorf("seed %d: /status got %d %q, %v", seed, status.Status, status.Body, serr)
		}
	}
}
