package service

import (
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"nostop/internal/sim"
)

// routeCase is one request a route test sends and the status it must get.
type routeCase struct {
	method, path, body string
	status             int
}

// routeCases lists every route each component serves, with bodies for the
// POSTs, then an unknown path (404) and a wrong method (405).
var routeCases = map[string][]routeCase{
	PeerBroker: {
		{"POST", "/fetch", `{"consumer":"engine-0","committed":0,"max":40}`, http.StatusOK},
		{"POST", "/commit", `{"committed":20}`, http.StatusOK},
		{"POST", "/fetch", `{"consumer":"engine-7","committed":20,"max":40}`, http.StatusOK},
		{"POST", "/fetch", `{"consumer":`, http.StatusBadRequest},
		{"GET", "/healthz", "", http.StatusOK},
		{"GET", "/invariants", "", http.StatusOK},
		{"GET", "/nope", "", http.StatusNotFound},
		{"GET", "/fetch", "", http.StatusMethodNotAllowed},
	},
	PeerEngine: {
		{"GET", "/status", "", http.StatusOK},
		{"GET", "/batches", "", http.StatusOK},
		{"GET", "/batches?since=3", "", http.StatusOK},
		{"GET", "/batches?last=2", "", http.StatusOK},
		{"GET", "/batches?last=x", "", http.StatusBadRequest},
		{"GET", "/batches/latest", "", http.StatusOK},
		{"GET", "/metrics", "", http.StatusOK},
		{"GET", "/config", "", http.StatusOK},
		{"POST", "/reconfigure", `{"batchIntervalMs":3000,"numExecutors":6}`, http.StatusOK},
		{"POST", "/reconfigure", `{"batchIntervalMs":`, http.StatusBadRequest},
		{"GET", "/status", "", http.StatusOK},
		{"GET", "/healthz", "", http.StatusOK},
		{"GET", "/invariants", "", http.StatusOK},
		{"GET", "/nope", "", http.StatusNotFound},
		{"POST", "/status", "", http.StatusMethodNotAllowed},
		{"GET", "/reconfigure", "", http.StatusMethodNotAllowed},
	},
	PeerController: {
		{"GET", "/healthz", "", http.StatusOK},
		{"GET", "/controller", "", http.StatusOK},
		{"GET", "/invariants", "", http.StatusOK},
		{"GET", "/nope", "", http.StatusNotFound},
		{"POST", "/controller", "", http.StatusMethodNotAllowed},
	},
}

// serveDirect serves rc through h.ServeHTTP with an httptest request, then
// runs whatever the handler scheduled for this instant, as a delivery's
// RunUntil does.
func serveDirect(clock *sim.Clock, h http.Handler, rc routeCase) *httptest.ResponseRecorder {
	var body io.Reader
	if rc.body != "" {
		body = strings.NewReader(rc.body)
	}
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest(rc.method, rc.path, body))
	clock.RunUntil(clock.Now())
	return rr
}

// TestComponentRoutesThroughSimNet runs two same-seed clusters to the same
// instant and sends every route of each component to one through SimNet
// and to the other through Handler().ServeHTTP: status and body must
// match. A zero-latency SimNet delivers at the instant the clusters stand
// at, so the twins stay in step through the POSTs that change state.
func TestComponentRoutesThroughSimNet(t *testing.T) {
	viaNet, direct := newSoakCluster(t, 11), newSoakCluster(t, 11)
	for _, c := range []*Cluster{viaNet, direct} {
		if err := c.Start(); err != nil {
			t.Fatal(err)
		}
		c.RunSim(45 * time.Second)
	}
	clock := viaNet.Clock()
	probe := NewSimNet(clock, nil)
	for _, name := range []string{PeerBroker, PeerEngine, PeerController} {
		probe.Register(name, viaNet.Component(name).Handler())
		tr := probe.Transport("probe", name)
		h := direct.Component(name).Handler()
		for _, rc := range routeCases[name] {
			var resp Response
			var err error
			fired := false
			tr.RoundTrip(Request{Method: rc.method, Path: rc.path, Body: []byte(rc.body)},
				func(r Response, e error) {
					resp, err, fired = Response{Status: r.Status, Body: append([]byte(nil), r.Body...)}, e, true
				})
			clock.RunUntil(clock.Now())
			if !fired || err != nil {
				t.Fatalf("%s %s %s: delivered=%v err=%v", name, rc.method, rc.path, fired, err)
			}
			want := serveDirect(direct.Clock(), h, rc)
			if want.Code != rc.status {
				t.Errorf("%s %s %s: ServeHTTP %d %q, want status %d", name, rc.method, rc.path,
					want.Code, want.Body, rc.status)
			}
			if resp.Status != want.Code || string(resp.Body) != want.Body.String() {
				t.Errorf("%s %s %s: SimNet %d %q\nServeHTTP %d %q", name, rc.method, rc.path,
					resp.Status, resp.Body, want.Code, want.Body)
			}
		}
	}
	if clock.Now() != direct.Clock().Now() {
		t.Fatalf("clusters drifted apart: %v and %v", clock.Now(), direct.Clock().Now())
	}
}

// TestEngineMountsListenerRoutes pins the flattened engine mux: each
// listener route, and a 404 and a 405 beside them, answers as it does on a
// mux that mounts only the collector — status, headers and body.
func TestEngineMountsListenerRoutes(t *testing.T) {
	c := newSoakCluster(t, 5)
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	c.RunSim(45 * time.Second)
	es := c.Component(PeerEngine).(*EngineService)
	only := http.NewServeMux()
	es.col.Mount(only)
	for _, rc := range []routeCase{
		{"GET", "/status", "", http.StatusOK},
		{"GET", "/batches", "", http.StatusOK},
		{"GET", "/batches?since=4", "", http.StatusOK},
		{"GET", "/batches?last=0", "", http.StatusOK},
		{"GET", "/batches?since=x", "", http.StatusBadRequest},
		{"GET", "/batches/latest", "", http.StatusOK},
		{"GET", "/metrics", "", http.StatusOK},
		{"HEAD", "/status", "", http.StatusOK},
		{"GET", "/nope", "", http.StatusNotFound},
		{"GET", "/batches/", "", http.StatusNotFound},
		{"POST", "/status", "", http.StatusMethodNotAllowed},
		{"POST", "/batches", "{}", http.StatusMethodNotAllowed},
	} {
		got := serveDirect(c.Clock(), es.Handler(), rc)
		want := serveDirect(c.Clock(), only, rc)
		if want.Code != rc.status {
			t.Errorf("%s %s: collector alone %d %q, want status %d", rc.method, rc.path,
				want.Code, want.Body, rc.status)
		}
		if got.Code != want.Code || got.Body.String() != want.Body.String() ||
			!reflect.DeepEqual(got.Header(), want.Header()) {
			t.Errorf("%s %s: engine %d %v %q\ncollector alone %d %v %q", rc.method, rc.path,
				got.Code, got.Header(), got.Body, want.Code, want.Header(), want.Body)
		}
	}
}
