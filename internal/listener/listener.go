// Package listener implements the "Spark Streaming Listener" of the NoStop
// architecture (Fig 4): it observes completed batches, renders each as a
// JSON status report, and serves live system status over HTTP so external
// tooling can watch the optimization without touching the engine.
//
// # Running summaries
//
// A controller reads /status at every interval, so Status must not cost
// more as the history grows. The Collector keeps what Status reports up to
// date as each batch arrives: an integer sum of the processing delays, a
// Welford accumulator fed the end-to-end delays in report order, and the
// end-to-end delays in ascending order for the p95. Status reads them in
// O(1) without allocating. Each value is bit for bit what stats.Mean and
// stats.Summarize give over the retained reports; Welford's mean depends
// on the order of its inputs, so when retention evicts the oldest report
// the accumulator is rebuilt over the reports that remain.
//
// # Synchronisation contract
//
// The Collector sits between two worlds: the single-threaded simulation
// kernel appends reports from its thread via the engine Listener callback,
// while HTTP handlers read from server goroutines. The report buffer and
// its running summaries are guarded by an RWMutex (the fields say so, and
// the lockguard analyzer enforces it), so Reports, Latest, and the
// report-derived half of Status are always internally consistent. Status
// additionally reads live engine state (Config, QueueLen, Lag, rate
// window) WITHOUT holding the engine still: callers that need the engine
// frozen while serving — any real HTTP deployment against a running
// simulation — must serialise handler execution against clock advancement
// externally, as service mode's wall mode does by holding the engine
// component's mutex around every request and every clock advance. Under
// that discipline /status and /metrics observe identical
// state: Status.Batches, the legacy nostop_batches_total gauge, and the
// attached registry's nostop_batches_completed_total counter all agree
// after every batch (asserted by TestMetricsStatusAgree).
package listener

import (
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"

	"nostop/internal/engine"
	"nostop/internal/metrics"
	"nostop/internal/stats"
)

// BatchReport is the JSON document emitted per completed batch. Field names
// follow the Spark Streaming listener vocabulary.
type BatchReport struct {
	BatchID           int64   `json:"batchId"`
	NumRecords        int64   `json:"numRecords"`
	BatchIntervalMs   int64   `json:"batchIntervalMs"`
	Executors         int     `json:"numExecutors"`
	SubmissionTimeSec float64 `json:"submissionTime"`
	ProcessingDelayMs int64   `json:"processingDelayMs"`
	SchedulingDelayMs int64   `json:"schedulingDelayMs"`
	TotalDelayMs      int64   `json:"totalDelayMs"`
	EndToEndDelayMs   int64   `json:"endToEndDelayMs"`
	FirstAfterChange  bool    `json:"firstAfterReconfig"`
	// FaultActive mirrors BatchStats.FaultActive so a remote controller
	// (service mode) can apply the same failure-aware measurement
	// admission a co-located one does.
	FaultActive bool `json:"faultActive"`
	QueueLength int  `json:"queueLength"`
}

// Report converts engine batch stats into the JSON report form.
func Report(bs engine.BatchStats) BatchReport {
	return BatchReport{
		BatchID:           bs.ID,
		NumRecords:        bs.Records,
		BatchIntervalMs:   bs.Config.BatchInterval.Milliseconds(),
		Executors:         bs.Config.Executors,
		SubmissionTimeSec: bs.CutAt.Seconds(),
		ProcessingDelayMs: bs.ProcessingTime.Milliseconds(),
		SchedulingDelayMs: bs.SchedulingDelay.Milliseconds(),
		TotalDelayMs:      (bs.ProcessingTime + bs.SchedulingDelay).Milliseconds(),
		EndToEndDelayMs:   bs.EndToEndDelay.Milliseconds(),
		FirstAfterChange:  bs.FirstAfterReconfig,
		FaultActive:       bs.FaultActive,
		QueueLength:       bs.QueueLen,
	}
}

// Status summarises the live system for the /status endpoint.
type Status struct {
	Batches         int     `json:"batches"`
	BatchIntervalMs int64   `json:"batchIntervalMs"`
	Executors       int     `json:"numExecutors"`
	QueueLength     int     `json:"queueLength"`
	LagRecords      int64   `json:"lagRecords"`
	RateMean        float64 `json:"inputRateMean"`
	RateStd         float64 `json:"inputRateStd"`
	MeanProcMs      float64 `json:"meanProcessingMs"`
	MeanE2EMs       float64 `json:"meanEndToEndMs"`
	P95E2EMs        float64 `json:"p95EndToEndMs"`
}

// Collector subscribes to an engine, retains reports, and serves them over
// HTTP. It is safe for concurrent use: the simulation appends from its
// thread while HTTP handlers read from server goroutines.
type Collector struct {
	eng     *engine.Engine
	maxKeep int

	mu      sync.RWMutex
	reports []BatchReport     // guarded by mu
	reg     *metrics.Registry // guarded by mu

	// Running summaries of reports, kept by onBatch for Status.
	procSum   int64        // guarded by mu; sum of ProcessingDelayMs
	e2e       stats.Online // guarded by mu; EndToEndDelayMs in report order
	e2eSorted []float64    // guarded by mu; EndToEndDelayMs ascending
}

// NewCollector attaches a collector to the engine. maxKeep bounds retained
// reports (0 means 100000; negative is rejected).
func NewCollector(eng *engine.Engine, maxKeep int) (*Collector, error) {
	if eng == nil {
		return nil, fmt.Errorf("listener: nil engine")
	}
	if maxKeep < 0 {
		return nil, fmt.Errorf("listener: maxKeep %d is negative", maxKeep)
	}
	if maxKeep == 0 {
		maxKeep = 100000
	}
	c := &Collector{eng: eng, maxKeep: maxKeep}
	eng.AddListener(engine.ListenerFunc(c.onBatch))
	return c, nil
}

// SetRegistry attaches a metrics registry whose full Prometheus exposition
// is prepended to /metrics ahead of the collector's legacy summary gauges.
// Attach the same registry the engine and controller write to (their
// Options.Metrics) so /metrics covers batch delay histograms, task
// retries, broker redeliveries, and SPSA step metrics; nil detaches.
func (c *Collector) SetRegistry(reg *metrics.Registry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.reg = reg
}

// Registry returns the attached metrics registry (nil when detached).
func (c *Collector) Registry() *metrics.Registry {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.reg
}

// onBatch appends the batch's report and updates the running summaries,
// evicting the oldest report at maxKeep.
func (c *Collector) onBatch(bs engine.BatchStats) {
	r := Report(bs)
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.reports) == c.maxKeep {
		old := c.reports[0]
		copy(c.reports, c.reports[1:])
		c.reports = c.reports[:len(c.reports)-1]
		c.procSum -= old.ProcessingDelayMs
		i := sort.SearchFloat64s(c.e2eSorted, float64(old.EndToEndDelayMs))
		c.e2eSorted = append(c.e2eSorted[:i], c.e2eSorted[i+1:]...)
		// Welford's mean cannot take an observation back exactly.
		c.e2e.Reset()
		for _, kept := range c.reports {
			c.e2e.Add(float64(kept.EndToEndDelayMs))
		}
	}
	c.reports = append(c.reports, r)
	c.procSum += r.ProcessingDelayMs
	e2e := float64(r.EndToEndDelayMs)
	c.e2e.Add(e2e)
	i := sort.SearchFloat64s(c.e2eSorted, e2e)
	c.e2eSorted = append(c.e2eSorted, 0)
	copy(c.e2eSorted[i+1:], c.e2eSorted[i:])
	c.e2eSorted[i] = e2e
}

// Reports returns a copy of the retained reports.
func (c *Collector) Reports() []BatchReport {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return append([]BatchReport(nil), c.reports...)
}

// appendReportRange appends the JSON of the retained reports pick selects
// from the history, in completion order: null for an empty history or a
// nil selection. It encodes from the retained slice under the read lock
// instead of copying it first, so serving a tail costs the tail.
func (c *Collector) appendReportRange(buf []byte, pick func([]BatchReport) []BatchReport) ([]byte, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if len(c.reports) == 0 {
		return AppendReports(buf, nil)
	}
	return AppendReports(buf, pick(c.reports))
}

// reportsAfter returns the reports with BatchID strictly greater than
// after — the incremental poll a remote controller tails the batch stream
// with — or nil (rendered null) when there are none.
func reportsAfter(rs []BatchReport, after int64) []BatchReport {
	// Batch IDs are monotone, so a binary search finds the cut point.
	i := sort.Search(len(rs), func(i int) bool { return rs[i].BatchID > after })
	if i == len(rs) {
		return nil
	}
	return rs[i:]
}

// Latest returns the most recent report; ok is false when none exist.
func (c *Collector) Latest() (BatchReport, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if len(c.reports) == 0 {
		return BatchReport{}, false
	}
	return c.reports[len(c.reports)-1], true
}

// Status returns the live summary in O(1) without allocating: the delay
// figures come from the running summaries, not from the history.
//
//nostop:hotpath
func (c *Collector) Status() Status {
	c.mu.RLock()
	n := len(c.reports)
	meanProc := 0.0
	if n > 0 {
		meanProc = float64(c.procSum) / float64(n)
	}
	meanE2E := c.e2e.Mean()
	p95E2E := stats.Percentile(c.e2eSorted, 0.95)
	c.mu.RUnlock()

	cfg := c.eng.Config()
	return Status{
		Batches:         n,
		BatchIntervalMs: cfg.BatchInterval.Milliseconds(),
		Executors:       cfg.Executors,
		QueueLength:     c.eng.QueueLen(),
		LagRecords:      c.eng.Lag(),
		RateMean:        c.eng.RecentRateMean(),
		RateStd:         c.eng.RecentRateStd(),
		MeanProcMs:      meanProc,
		MeanE2EMs:       meanE2E,
		P95E2EMs:        p95E2E,
	}
}

// Mount adds the collector's routes to mux, beside the caller's own:
//
//	GET /status          live Status JSON
//	GET /batches         all retained reports (?last=N for the tail,
//	                     ?since=ID for reports with BatchID > ID)
//	GET /batches/latest  the most recent report
//	GET /metrics         Prometheus text exposition: the attached registry
//	                     (SetRegistry) followed by the legacy summary gauges
//
// Mounting on the server's one mux, rather than nesting a mux under "/",
// routes each request once.
func (c *Collector) Mount(mux *http.ServeMux) {
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		st := c.Status()
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		if reg := c.Registry(); reg != nil {
			if err := reg.WritePrometheus(w); err != nil {
				return // client went away mid-write; nothing to salvage
			}
		}
		for _, m := range []struct {
			name, help string
			value      float64
		}{
			{"nostop_batches_total", "Completed batches", float64(st.Batches)},
			{"nostop_batch_interval_ms", "Live batch interval", float64(st.BatchIntervalMs)},
			{"nostop_executors", "Live executor count", float64(st.Executors)},
			{"nostop_queue_length", "Waiting batches", float64(st.QueueLength)},
			{"nostop_lag_records", "Unconsumed broker records", float64(st.LagRecords)},
			{"nostop_input_rate_mean", "Mean input rate (rec/s)", st.RateMean},
			{"nostop_input_rate_std", "Input rate std (rec/s)", st.RateStd},
			{"nostop_processing_ms_mean", "Mean batch processing time", st.MeanProcMs},
			{"nostop_end_to_end_ms_mean", "Mean end-to-end delay", st.MeanE2EMs},
			{"nostop_end_to_end_ms_p95", "p95 end-to-end delay", st.P95E2EMs},
		} {
			fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %g\n",
				m.name, m.help, m.name, m.name, m.value)
		}
	})
	mux.HandleFunc("GET /status", func(w http.ResponseWriter, r *http.Request) {
		st := c.Status()
		reply(w, func(buf []byte) ([]byte, error) { return AppendStatus(buf, st) })
	})
	mux.HandleFunc("GET /batches", func(w http.ResponseWriter, r *http.Request) {
		sinceStr, lastStr, ok := scanQuery(r.URL.RawQuery)
		if !ok {
			q := r.URL.Query()
			sinceStr, lastStr = q.Get("since"), q.Get("last")
		}
		pick := func(rs []BatchReport) []BatchReport { return rs }
		if sinceStr != "" {
			after, err := strconv.ParseInt(sinceStr, 10, 64)
			if err != nil {
				http.Error(w, "bad since parameter", http.StatusBadRequest)
				return
			}
			pick = func(rs []BatchReport) []BatchReport { return reportsAfter(rs, after) }
		} else if lastStr != "" {
			n, err := strconv.Atoi(lastStr)
			if err != nil || n < 0 {
				http.Error(w, "bad last parameter", http.StatusBadRequest)
				return
			}
			// last=0 selects an empty, non-nil tail, rendered [].
			pick = func(rs []BatchReport) []BatchReport { return rs[max(0, len(rs)-n):] }
		}
		reply(w, func(buf []byte) ([]byte, error) { return c.appendReportRange(buf, pick) })
	})
	mux.HandleFunc("GET /batches/latest", func(w http.ResponseWriter, r *http.Request) {
		latest, ok := c.Latest()
		if !ok {
			http.Error(w, "no batches yet", http.StatusNotFound)
			return
		}
		reply(w, func(buf []byte) ([]byte, error) { return appendReport(buf, &latest) })
	})
}

// scanQuery returns the first since and last values of a raw query, as
// url.ParseQuery(raw).Get would, without building the map: pairs split at
// '&', a key at its first '=', and empty pairs skipped. It reports false
// for a query holding '%', '+' or ';', whose pairs ParseQuery unescapes or
// drops; the caller parses those as before.
func scanQuery(raw string) (since, last string, ok bool) {
	if strings.ContainsAny(raw, "%+;") {
		return "", "", false
	}
	var haveSince, haveLast bool
	for raw != "" {
		var pair string
		pair, raw, _ = strings.Cut(raw, "&")
		key, value, _ := strings.Cut(pair, "=")
		switch {
		case key == "since" && !haveSince:
			since, haveSince = value, true
		case key == "last" && !haveLast:
			last, haveLast = value, true
		}
	}
	return since, last, true
}
