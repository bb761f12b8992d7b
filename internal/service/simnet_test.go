package service

import (
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"nostop/internal/sim"
)

// deliver runs one exchange over the SimNet transport to completion and
// returns what the transport handed back.
func deliver(t *testing.T, clock *sim.Clock, tr Transport, req Request) Response {
	t.Helper()
	var resp Response
	var err error
	fired := false
	tr.RoundTrip(req, func(r Response, e error) { resp, err, fired = r, e, true })
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
			c.Call("GET", tc.path, nil, func(b []byte, e error) { body, err, fired = b, e, true })
			clock.RunUntil(clock.Now() + sim.Time(time.Second))
			switch {
			case !fired:
				t.Fatal("call never completed")
			case tc.err == "" && (err != nil || string(body) != tc.body):
				t.Fatalf("call gave %q, %v; want %q, no error", body, err, tc.body)
			case tc.err != "" && (err == nil || !strings.Contains(err.Error(), tc.err)):
				t.Fatalf("call error %v, want one containing %q", err, tc.err)
			}
			if got := c.State(); got != tc.breaker {
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
// fails the exchange, as on the wall transport, without reaching the peer.
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
