package workload

import (
	"fmt"
	"strings"

	"nostop/internal/broker"
	"nostop/internal/rng"
)

// wcVocabulary is the word pool the generator draws from with a skewed
// (roughly Zipfian) distribution, so counts are realistic: a few very common
// words and a long tail.
var wcVocabulary = []string{
	"the", "of", "and", "to", "in", "a", "is", "that", "for", "it",
	"stream", "data", "batch", "spark", "system", "node", "latency", "delay",
	"executor", "interval", "record", "queue", "rate", "time", "process",
	"cluster", "kafka", "topic", "partition", "offset", "window", "state",
	"shuffle", "stage", "task", "job", "driver", "worker", "memory", "core",
}

// WordCount is the paper's CPU-intensive WordCount workload: two map/reduce
// operations with a fixed processing flow, making its batch times the most
// stable of the four (§6.3).
type WordCount struct {
	model *CostModel
	// totals persists cumulative counts across batches (updateStateByKey
	// style), so the workload carries streaming state like a real app.
	totals map[string]int64
}

// NewWordCount returns a fresh workload.
func NewWordCount() *WordCount {
	return &WordCount{
		model: &CostModel{
			Name:            "WordCount",
			RecordCost:      0.00003,
			InitBase:        0.4,
			PerExecOverhead: 0.12,
			IOWeight:        0.2,
			NoiseCV:         0.04,
			IterInitial:     1,
		},
		totals: make(map[string]int64),
	}
}

// Name implements Workload.
func (w *WordCount) Name() string { return "WordCount" }

// Model implements Workload.
func (w *WordCount) Model() *CostModel { return w.model }

// RateBand implements Workload (§6.2.2: [110000, 190000] records/second).
func (w *WordCount) RateBand() (float64, float64) { return 110000, 190000 }

// GenValue synthesises a short sentence with a skewed word distribution:
// rank r is chosen with probability ∝ 1/(r+1).
func (w *WordCount) GenValue(i int64, r *rng.Stream) string {
	n := 4 + r.Intn(8)
	words := make([]string, n)
	for k := 0; k < n; k++ {
		words[k] = wcVocabulary[zipfIndex(r, len(wcVocabulary))]
	}
	return strings.Join(words, " ")
}

// zipfIndex draws an index in [0, n) with P(i) ∝ 1/(i+1) by inverse CDF.
func zipfIndex(r *rng.Stream, n int) int {
	// Harmonic normaliser H(n); n is small so compute directly.
	h := 0.0
	for i := 1; i <= n; i++ {
		h += 1 / float64(i)
	}
	u := r.Float64() * h
	acc := 0.0
	for i := 1; i <= n; i++ {
		acc += 1 / float64(i)
		if u <= acc {
			return i - 1
		}
	}
	return n - 1
}

// ProcessBatch tokenises the lines, counts words (the "map" and "reduce"
// phases), and folds the counts into the running totals.
func (w *WordCount) ProcessBatch(recs []broker.Record) Result {
	batch := make(map[string]int64)
	var tokens int64
	for _, rec := range recs {
		for _, word := range strings.Fields(rec.Value) {
			word = strings.ToLower(strings.Trim(word, ".,!?;:\"'"))
			if word == "" {
				continue
			}
			batch[word]++
			tokens++
		}
	}
	if tokens == 0 {
		return Result{Note: "wordcount: empty batch"}
	}
	for word, c := range batch {
		w.totals[word] += c
	}
	topWord, topCount := "", int64(-1)
	for word, c := range batch {
		if c > topCount || (c == topCount && word < topWord) {
			topWord, topCount = word, c
		}
	}
	return Result{
		Records: len(recs),
		Output: map[string]float64{
			"tokens":   float64(tokens),
			"distinct": float64(len(batch)),
			"top":      float64(topCount),
		},
		Note: fmt.Sprintf("wordcount: %d tokens, %d distinct, top %q×%d", tokens, len(batch), topWord, topCount),
	}
}
