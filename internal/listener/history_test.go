package listener

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nostop/internal/engine"
	"nostop/internal/rng"
	"nostop/internal/sim"
)

// randomStats draws a batch with every reported field random, so the
// rendered reports vary in length.
func randomStats(r *rng.Stream, id int64) engine.BatchStats {
	d := func(max int64) time.Duration { return time.Duration(r.Int63() % max) }
	return engine.BatchStats{
		ID:                 id,
		Records:            r.Int63() >> uint(r.Intn(63)),
		Config:             engine.Config{BatchInterval: d(int64(time.Hour)), Executors: r.Intn(1 << uint(r.Intn(20)))},
		CutAt:              sim.Time(d(1 << 62)),
		SchedulingDelay:    d(int64(time.Hour)),
		ProcessingTime:     d(int64(time.Hour)),
		EndToEndDelay:      d(int64(time.Hour)),
		FirstAfterReconfig: r.Intn(2) == 0,
		FaultActive:        r.Intn(3) == 0,
		QueueLen:           r.Intn(1000),
	}
}

// selection is what a /batches form selects from a history.
type selection struct {
	path  string
	reply func(rs []BatchReport) any
}

// batchForms lists every /batches form over a history: the whole of it,
// since=k for every k from before its first report to past its newest, and
// last=n for n from 0 to one past its length.
func batchForms(rs []BatchReport) []selection {
	forms := []selection{{"/batches", func(rs []BatchReport) any { return rs }}}
	lo, hi := int64(-1), int64(0)
	if len(rs) > 0 {
		lo, hi = rs[0].BatchID-1, rs[len(rs)-1].BatchID+1
	}
	for k := lo; k <= hi; k++ {
		forms = append(forms, selection{"/batches?since=" + strconv.FormatInt(k, 10), sinceReply(k)})
	}
	for n := 0; n <= len(rs)+1; n++ {
		forms = append(forms, selection{"/batches?last=" + strconv.Itoa(n), lastReply(n)})
	}
	return forms
}

// sinceReply selects as ?since=k does: nil when nothing is newer.
func sinceReply(k int64) func([]BatchReport) any {
	return func(rs []BatchReport) any {
		var out []BatchReport
		for _, r := range rs {
			if r.BatchID > k {
				out = append(out, r)
			}
		}
		return out
	}
}

// lastReply selects as ?last=n does: nil for an empty history, and an
// empty, non-nil tail for n = 0.
func lastReply(n int) func([]BatchReport) any {
	return func(rs []BatchReport) any {
		if rs == nil {
			return rs
		}
		return rs[max(0, len(rs)-n):]
	}
}

// serve answers one GET on the collector's routes.
func serve(c *Collector, path string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	routes(c).ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	return rec
}

// sameReply reports whether got is the reply the json.Encoder reply writer
// gives for want.
func sameReply(got *httptest.ResponseRecorder, want any) bool {
	ref := httptest.NewRecorder()
	writeJSONReference(ref, want)
	return got.Code == ref.Code && got.Body.String() == ref.Body.String() &&
		reflect.DeepEqual(got.Header(), ref.Header())
}

// TestBatchesMatchEncodingJSON feeds random histories to collectors whose
// retention evicts on every batch or keeps everything, and compares every
// /batches form and /batches/latest with the json.Encoder reply writer's
// bytes for the retained reports. The small retentions move the rendered
// history to a fresh array many times over.
func TestBatchesMatchEncodingJSON(t *testing.T) {
	for _, maxKeep := range []int{1, 2, 3, 7, 50, 0} {
		t.Run(fmt.Sprintf("maxKeep=%d", maxKeep), func(t *testing.T) {
			col, err := NewCollector(newIdleEngine(t), maxKeep)
			if err != nil {
				t.Fatal(err)
			}
			r := rng.New(43).Split(fmt.Sprintf("listener/history/%d", maxKeep))
			id, moves, base := int64(r.Intn(3)), 0, 0
			batches := 480
			if maxKeep == 0 {
				batches = 80 // past several doublings, with no eviction
			}
			for b := 0; b < batches; b++ {
				if b < 20 || b%20 == 0 {
					check(t, col)
				}
				col.onBatch(randomStats(r, id))
				id += 1 + int64(r.Intn(3)) // IDs are monotone, with gaps here
				if col.base != base {
					moves, base = moves+1, col.base
				}
			}
			check(t, col)
			if maxKeep > 0 && maxKeep <= 50 && moves < 3 {
				t.Errorf("the rendered history dropped its evicted prefix %d times, want several", moves)
			}
		})
	}
}

// check serves every form over col's retained reports.
func check(t *testing.T, col *Collector) {
	t.Helper()
	rs := reportsCopy(col)
	if len(rs) == 0 {
		rs = nil
	}
	for _, f := range batchForms(rs) {
		if got := serve(col, f.path); !sameReply(got, f.reply(rs)) {
			t.Fatalf("GET %s over %d reports: %d %q\nwant %q", f.path, len(rs), got.Code, got.Body,
				encodeReference(t, f.reply(rs)))
		}
	}
	got := serve(col, "/batches/latest")
	if rs == nil {
		if got.Code != http.StatusNotFound {
			t.Fatalf("GET /batches/latest over no reports: %d %q", got.Code, got.Body)
		}
	} else if !sameReply(got, rs[len(rs)-1]) {
		t.Fatalf("GET /batches/latest: %d %q", got.Code, got.Body)
	}
}

// statsFor is batch id's stats in TestBatchesConcurrentWithBatches: a pure
// function of id, so a reader can rebuild any history the feeder made.
func statsFor(id int64) engine.BatchStats {
	return engine.BatchStats{
		ID:              id,
		Records:         id * 7919 % 100003,
		Config:          engine.Config{BatchInterval: time.Duration(1+id%7) * time.Second, Executors: int(1 + id%11)},
		CutAt:           sim.Time(id)*sim.Time(time.Second) + sim.Time(id%13)*sim.Time(time.Millisecond),
		SchedulingDelay: time.Duration(id%97) * time.Millisecond,
		ProcessingTime:  time.Duration(id*31%100000) * time.Millisecond,
		EndToEndDelay:   time.Duration(id*17%200000) * time.Millisecond,
		FaultActive:     id%5 == 0,
		QueueLen:        int(id % 3),
	}
}

// TestBatchesConcurrentWithBatches reads every /batches form from other
// goroutines while batches arrive and evict at a small retention, and
// checks each reply against the history it was taken from: a reply that
// holds reports against the history whose newest report is its last, and
// one that holds none against some history between the newest report
// before the request and the newest after it. Under -race it also checks
// that a reply's bytes, written after the read lock is released, are never
// written by the feeder.
func TestBatchesConcurrentWithBatches(t *testing.T) {
	const maxKeep, batches = 5, 3000
	col, err := NewCollector(newIdleEngine(t), maxKeep)
	if err != nil {
		t.Fatal(err)
	}
	col.onBatch(statsFor(0))
	history := func(newest int64) []BatchReport {
		var rs []BatchReport
		for id := max(0, newest-maxKeep+1); id <= newest; id++ {
			rs = append(rs, Report(statsFor(id)))
		}
		return rs
	}
	newest := func() int64 {
		latest, _ := col.Latest()
		return latest.BatchID
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var reads atomic.Int64
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(r *rng.Stream) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				lo := newest()
				f := selection{"/batches", func(rs []BatchReport) any { return rs }}
				switch k := lo - 2 + int64(r.Intn(maxKeep+4)); r.Intn(3) {
				case 1:
					f = selection{"/batches?since=" + strconv.FormatInt(k, 10), sinceReply(k)}
				case 2:
					n := r.Intn(maxKeep + 2)
					f = selection{"/batches?last=" + strconv.Itoa(n), lastReply(n)}
				}
				got := serve(col, f.path)
				hi := newest()
				var rs []BatchReport
				if err := json.Unmarshal(got.Body.Bytes(), &rs); err != nil {
					t.Errorf("GET %s: %d %q: %v", f.path, got.Code, got.Body, err)
					return
				}
				from, to := lo, hi
				if len(rs) > 0 {
					from, to = rs[len(rs)-1].BatchID, rs[len(rs)-1].BatchID
				}
				ok := false
				for h := from; h <= to && !ok && h >= lo && h <= hi; h++ {
					ok = sameReply(got, f.reply(history(h)))
				}
				if !ok {
					t.Errorf("GET %s between newest %d and %d: %d %q", f.path, lo, hi, got.Code, got.Body)
					return
				}
				reads.Add(1)
			}
		}(rng.New(47).Split(fmt.Sprintf("reader/%d", g)))
	}
	for id := int64(1); id < batches || reads.Load() < 500 && !t.Failed(); id++ {
		col.onBatch(statsFor(id))
	}
	close(stop)
	wg.Wait()
	col.mu.RLock()
	defer col.mu.RUnlock()
	if col.base == 0 {
		t.Fatal("the rendered history never dropped its evicted prefix")
	}
}
