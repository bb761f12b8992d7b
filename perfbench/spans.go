package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// Layer names, as in the internal/ package list; "bench" is the harness's
// own work and "runtime" the Go runtime.
const (
	layerSim       = "sim"
	layerRatetrace = "ratetrace"
	layerBroker    = "broker"
	layerEngine    = "engine"
	layerMetrics   = "metrics"
	layerTracing   = "tracing"
	layerListener  = "listener"
	layerService   = "service"
	layerTenant    = "tenant"
	layerFleet     = "fleet"
	layerRuntime   = "runtime"
	layerBench     = "bench"
)

// layerOrder is the print order of the layer table.
var layerOrder = []string{
	layerSim, layerRatetrace, layerBroker, layerEngine, layerMetrics, layerTracing,
	layerListener, layerService, layerTenant, layerFleet, layerRuntime, layerBench,
}

// span is one wall-clock interval the benchmark spent inside a call it made
// into a layer. Width is the number of workers the span's children run on:
// the fleet pool's round span has width nproc, everything else width 1.
type span struct {
	name   string
	layer  string
	parent int
	width  int
	lane   int
	start  time.Duration
	end    time.Duration
}

func (s span) dur() float64 { return (s.end - s.start).Seconds() }

// recorder keeps spans in memory until the run ends. A nil recorder records
// nothing, which is how untraced runs stay free of span overhead.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
	lanes []bool // lanes[i] is true while a span occupies display lane i
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span under parent (-1: a root span) and returns its id.
func (r *recorder) begin(name, layer string, parent, width int) int {
	if r == nil {
		return -1
	}
	now := time.Since(r.t0)
	r.mu.Lock()
	defer r.mu.Unlock()
	lane := 0
	for lane < len(r.lanes) && r.lanes[lane] {
		lane++
	}
	if lane == len(r.lanes) {
		r.lanes = append(r.lanes, false)
	}
	r.lanes[lane] = true
	r.spans = append(r.spans, span{name: name, layer: layer, parent: parent, width: width, lane: lane, start: now, end: now})
	return len(r.spans) - 1
}

// end closes the span begin returned.
func (r *recorder) end(id int) {
	if r == nil || id < 0 {
		return
	}
	now := time.Since(r.t0)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id].end = now
	r.lanes[r.spans[id].lane] = false
}

// selfTimes returns each layer's self time in worker-seconds over the span
// trees whose root is named root, and the trees' total worker time. A
// span's self time is width × duration minus its children's durations.
func (r *recorder) selfTimes(root string) (map[string]float64, float64) {
	children := make([]float64, len(r.spans))
	for _, s := range r.spans {
		if s.parent >= 0 {
			children[s.parent] += s.dur()
		}
	}
	self := map[string]float64{}
	total := 0.0
	for i, s := range r.spans {
		top := i
		for r.spans[top].parent >= 0 {
			top = r.spans[top].parent
		}
		if r.spans[top].name != root {
			continue
		}
		self[s.layer] += float64(s.width)*s.dur() - children[i]
		if s.parent < 0 {
			total += float64(s.width) * s.dur()
		}
	}
	return self, total
}

// write stores the spans as a Chrome trace_event file: open it in
// chrome://tracing or Perfetto, one row per concurrently open span.
func (r *recorder) write(path string) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   int64          `json:"ts"`
		Dur  int64          `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	events := make([]event, len(r.spans))
	for i, s := range r.spans {
		events[i] = event{
			Name: s.name, Cat: s.layer, Ph: "X",
			Ts: s.start.Microseconds(), Dur: (s.end - s.start).Microseconds(),
			Pid: 1, Tid: s.lane,
			Args: map[string]int{"id": i, "parent": s.parent, "width": s.width},
		}
	}
	data, err := json.Marshal(map[string]any{"displayTimeUnit": "ms", "traceEvents": events})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
