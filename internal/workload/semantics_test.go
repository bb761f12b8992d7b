package workload

import (
	"math"
	"strings"
	"testing"

	"nostop/internal/broker"
	"nostop/internal/rng"
)

// genBatch synthesises n records for a workload.
func genBatch(w Workload, n int, seed uint64) []broker.Record {
	r := rng.New(seed)
	recs := make([]broker.Record, n)
	for i := 0; i < n; i++ {
		recs[i] = broker.Record{Offset: int64(i), Value: w.GenValue(int64(i), r)}
	}
	return recs
}

func TestLogRegLearnsSeparator(t *testing.T) {
	w := NewLogisticRegression()
	var lastAcc float64
	for b := 0; b < 20; b++ {
		res := w.ProcessBatch(genBatch(w, 500, uint64(b+1)))
		lastAcc = res.Output["accuracy"]
	}
	// With 5% label noise, a fitted model should reach ~90%+ progressive
	// accuracy; an unfitted one starts near 50%.
	if lastAcc < 0.85 {
		t.Fatalf("accuracy %.3f after 20 batches, want > 0.85", lastAcc)
	}
	// Learned weights must correlate with the hidden truth in sign.
	weights := w.Weights()
	agree := 0
	for i, truth := range logRegTruth {
		if (weights[i] > 0) == (truth > 0) {
			agree++
		}
	}
	if agree < logRegDim-1 {
		t.Fatalf("only %d/%d weight signs recovered", agree, logRegDim)
	}
}

func TestLogRegFirstBatchWorseThanLater(t *testing.T) {
	w := NewLogisticRegression()
	first := w.ProcessBatch(genBatch(w, 500, 1)).Output["accuracy"]
	for b := 0; b < 10; b++ {
		w.ProcessBatch(genBatch(w, 500, uint64(b+2)))
	}
	later := w.ProcessBatch(genBatch(w, 500, 99)).Output["accuracy"]
	if later <= first {
		t.Fatalf("accuracy did not improve: first %.3f later %.3f", first, later)
	}
}

func TestLogRegSkipsMalformed(t *testing.T) {
	w := NewLogisticRegression()
	recs := []broker.Record{
		{Value: "garbage"},
		{Value: "1,0.1,0.2"},                    // too few fields
		{Value: "1,a,b,c,d,e,f,g,h"},            // non-numeric
		{Value: w.GenValue(0, rng.New(1))},      // valid
		{Value: strings.Repeat(",", logRegDim)}, // empty fields
	}
	res := w.ProcessBatch(recs)
	if res.Records != 1 {
		t.Fatalf("parsed %d records, want 1", res.Records)
	}
}

func TestLogRegEmptyBatch(t *testing.T) {
	w := NewLogisticRegression()
	res := w.ProcessBatch(nil)
	if res.Records != 0 || res.Note == "" {
		t.Fatalf("empty batch result %+v", res)
	}
}

func TestLinRegRecoversCoefficients(t *testing.T) {
	w := NewLinearRegression()
	for b := 0; b < 10; b++ {
		w.ProcessBatch(genBatch(w, 800, uint64(b+1)))
	}
	beta := w.beta
	if beta == nil {
		t.Fatal("no coefficients after 10 batches")
	}
	if math.Abs(beta[0]-linRegIntercept) > 0.1 {
		t.Fatalf("intercept %.3f, want ~%.1f", beta[0], linRegIntercept)
	}
	for i, truth := range linRegTruth {
		if math.Abs(beta[i+1]-truth) > 0.1 {
			t.Fatalf("beta[%d]=%.3f, want ~%.2f (all: %v)", i+1, beta[i+1], truth, beta)
		}
	}
}

func TestLinRegMSEDecreasesToNoiseFloor(t *testing.T) {
	w := NewLinearRegression()
	var mse float64
	for b := 0; b < 10; b++ {
		mse = w.ProcessBatch(genBatch(w, 800, uint64(b+1))).Output["mse"]
	}
	// Generator noise is N(0, 0.5): MSE floor ≈ 0.25.
	if mse > 0.35 {
		t.Fatalf("mse %.3f, want near the 0.25 noise floor", mse)
	}
}

func TestLinRegEmptyAndMalformed(t *testing.T) {
	w := NewLinearRegression()
	if res := w.ProcessBatch(nil); res.Records != 0 {
		t.Fatal("empty batch parsed records")
	}
	res := w.ProcessBatch([]broker.Record{{Value: "nope"}, {Value: "1,2"}})
	if res.Records != 0 {
		t.Fatalf("malformed batch parsed %d records", res.Records)
	}
}

func TestWordCountCounts(t *testing.T) {
	w := NewWordCount()
	recs := []broker.Record{
		{Value: "spark streaming spark"},
		{Value: "the spark engine"},
	}
	res := w.ProcessBatch(recs)
	if res.Output["tokens"] != 6 {
		t.Fatalf("tokens=%v, want 6", res.Output["tokens"])
	}
	if res.Output["distinct"] != 4 {
		t.Fatalf("distinct=%v, want 4", res.Output["distinct"])
	}
	if res.Output["top"] != 3 {
		t.Fatalf("top=%v, want 3 (spark)", res.Output["top"])
	}
	if w.totals["spark"] != 3 {
		t.Fatalf("total(spark)=%d", w.totals["spark"])
	}
}

func TestWordCountStatePersistsAcrossBatches(t *testing.T) {
	w := NewWordCount()
	w.ProcessBatch([]broker.Record{{Value: "alpha beta"}})
	w.ProcessBatch([]broker.Record{{Value: "alpha gamma"}})
	if w.totals["alpha"] != 2 {
		t.Fatalf("total(alpha)=%d, want 2", w.totals["alpha"])
	}
}

func TestWordCountNormalisesTokens(t *testing.T) {
	w := NewWordCount()
	res := w.ProcessBatch([]broker.Record{{Value: `Spark, "spark" SPARK!`}})
	if res.Output["distinct"] != 1 {
		t.Fatalf("distinct=%v, want 1 after normalisation", res.Output["distinct"])
	}
}

func TestWordCountEmptyBatch(t *testing.T) {
	w := NewWordCount()
	res := w.ProcessBatch([]broker.Record{{Value: "   "}})
	if res.Records != 0 {
		t.Fatalf("blank-line batch counted records: %+v", res)
	}
}

func TestWordCountGeneratorSkewed(t *testing.T) {
	w := NewWordCount()
	res := w.ProcessBatch(genBatch(w, 2000, 7))
	// Zipf skew: "the" (rank 0) must appear far more often than a deep
	// tail word.
	if w.totals["the"] < 10*w.totals["core"] {
		t.Fatalf("vocabulary not skewed: the=%d core=%d", w.totals["the"], w.totals["core"])
	}
	if res.Output["distinct"] < 30 {
		t.Fatalf("generator only produced %v distinct words", res.Output["distinct"])
	}
}

func TestParseLogLine(t *testing.T) {
	line := `10.0.0.1 - - [04/Jul/2026:12:30:45 +0000] "GET /cart HTTP/1.1" 200 5120 "-" "curl/7.68.0"`
	e, ok := parseLogLine(line)
	if !ok {
		t.Fatal("valid line rejected")
	}
	if e.ip != "10.0.0.1" || e.method != "GET" || e.path != "/cart" || e.status != 200 || e.bytes != 5120 {
		t.Fatalf("parsed %+v", e)
	}
}

func TestParseLogLineRejectsGarbage(t *testing.T) {
	bad := []string{
		"",
		"no-quotes here 200 123",
		`1.2.3.4 - - [t] "GET" 200 10 "-" "ua"`, // request too short
		`1.2.3.4 - - [t] "GET / HTTP/1.1" abc 10`,  // bad status
		`1.2.3.4 - - [t] "GET / HTTP/1.1" 200 xyz`, // bad bytes
		`1.2.3.4 - - [t] "GET / HTTP/1.1`,          // unterminated quote
	}
	for _, line := range bad {
		if _, ok := parseLogLine(line); ok {
			t.Errorf("garbage accepted: %q", line)
		}
	}
}

func TestPageAnalyzeAggregates(t *testing.T) {
	w := NewPageAnalyze()
	recs := []broker.Record{
		{Value: `1.1.1.1 - - [t] "GET /cart HTTP/1.1" 200 1000 "-" "ua"`},
		{Value: `1.1.1.2 - - [t] "GET /cart HTTP/1.1" 500 2000 "-" "ua"`},
		{Value: `1.1.1.3 - - [t] "POST /login HTTP/1.1" 200 3000 "-" "ua"`},
		{Value: "garbage line"},
	}
	res := w.ProcessBatch(recs)
	if res.Output["parsed"] != 3 || res.Output["malformed"] != 1 {
		t.Fatalf("parsed/malformed: %+v", res.Output)
	}
	if res.Output["bytes"] != 6000 {
		t.Fatalf("bytes=%v", res.Output["bytes"])
	}
	if math.Abs(res.Output["error_rate"]-1.0/3.0) > 1e-9 {
		t.Fatalf("error_rate=%v", res.Output["error_rate"])
	}
	if w.PathHits("/cart") != 2 || w.StatusTotal(500) != 1 {
		t.Fatalf("cumulative state wrong: cart=%d 500s=%d", w.PathHits("/cart"), w.StatusTotal(500))
	}
}

func TestPageAnalyzeGeneratedLinesParse(t *testing.T) {
	w := NewPageAnalyze()
	res := w.ProcessBatch(genBatch(w, 1000, 9))
	if res.Output["malformed"] != 0 {
		t.Fatalf("%v generated lines failed to parse", res.Output["malformed"])
	}
	if res.Output["parsed"] != 1000 {
		t.Fatalf("parsed=%v", res.Output["parsed"])
	}
	// Error rate should be near the generator's 2% 5xx share.
	if er := res.Output["error_rate"]; er < 0.005 || er > 0.05 {
		t.Fatalf("error_rate=%v, want ≈0.02", er)
	}
}

func TestPageAnalyzeAllGarbage(t *testing.T) {
	w := NewPageAnalyze()
	res := w.ProcessBatch([]broker.Record{{Value: "x"}, {Value: "y"}})
	if res.Output != nil {
		t.Fatalf("all-garbage batch produced output %+v", res.Output)
	}
}

func TestGenValueDeterministicPerStream(t *testing.T) {
	for _, w := range All() {
		a := w.GenValue(3, rng.New(55))
		b := w.GenValue(3, rng.New(55))
		if a != b {
			t.Errorf("%s: GenValue not deterministic for same stream", w.Name())
		}
	}
}

// benchBatch measures one ProcessBatch call over 1000 generated records.
func benchBatch(b *testing.B, w Workload) {
	recs := genBatch(w, 1000, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res := w.ProcessBatch(recs); res.Records == 0 {
			b.Fatal("no records")
		}
	}
}

func BenchmarkWordCountBatch(b *testing.B)   { benchBatch(b, NewWordCount()) }
func BenchmarkLogRegSGDBatch(b *testing.B)   { benchBatch(b, NewLogisticRegression()) }
func BenchmarkPageAnalyzeBatch(b *testing.B) { benchBatch(b, NewPageAnalyze()) }
