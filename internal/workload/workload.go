// Package workload defines the four streaming applications the paper
// evaluates (§6.1) — Logistic Regression, Linear Regression, WordCount, and
// Page/Log Analyze — at two levels:
//
//   - A CostModel that maps (batch size, executor allocation) to a simulated
//     batch processing time with workload-specific overheads, parallelism
//     behaviour, and noise. The constants are calibrated so the measured
//     curves have the shapes of Fig 2a/2b and Fig 3a/3b.
//   - A semantic implementation that actually processes record payloads
//     (SGD classification, least-squares regression, word counting, Nginx
//     log analysis), used by examples and by the engine's payload path.
//
// The ML workloads additionally carry fit state: a freshly reset model runs
// more optimization iterations per batch than a converged one, which is the
// paper's explanation for why the machine-learning workloads show the most
// dynamic optimization traces (§6.3).
package workload

import (
	"fmt"
	"math"
	"time"

	"nostop/internal/broker"
	"nostop/internal/rng"
)

// CostModel converts batch characteristics into simulated processing time.
//
// ProcessingTime(n, E, P) =
//
//	noise · [ InitBase + PerExecOverhead·E + n·RecordCost·iter(k)·jitter / P ]
//
// where P is the effective parallelism of the executor set (speed and disk
// factors applied by the caller), iter(k) = 1 + (IterInitial−1)·e^(−k/IterTau)
// models ML convergence across the k batches processed since the last fit
// reset, jitter is per-batch lognormal spread of iteration counts, and noise
// is lognormal system noise (network jitter, contention).
type CostModel struct {
	Name string
	// RecordCost is reference-core-seconds of work per record.
	RecordCost float64
	// InitBase is the fixed job submission/setup time per batch, seconds.
	InitBase float64
	// PerExecOverhead is seconds of per-batch coordination cost added for
	// each executor (task serialisation, shuffle coordination, heartbeats).
	// This term creates the Fig 3a upturn at high executor counts.
	PerExecOverhead float64
	// IOWeight in [0,1] is the fraction of the work that is disk-bound;
	// the engine blends node disk factors into parallelism with it.
	IOWeight float64
	// NoiseCV is the coefficient of variation of whole-batch system noise.
	NoiseCV float64
	// IterInitial (>= 1) is the iteration multiplier of an unfitted model;
	// 1 for non-iterative workloads.
	IterInitial float64
	// IterTau is the convergence time constant in batches.
	IterTau float64
	// IterJitter is the per-batch CV of the iteration count (ML only).
	IterJitter float64

	batchesSinceReset int
}

// ProcessingTime returns the simulated processing time of a batch with n
// records on executors executors whose effective parallelism is parallelism.
// It does not advance fit state; call NoteBatch once per completed batch.
func (m *CostModel) ProcessingTime(n int64, executors int, parallelism float64, noise *rng.Stream) time.Duration {
	if executors <= 0 {
		panic(fmt.Sprintf("workload %s: non-positive executors %d", m.Name, executors))
	}
	if parallelism <= 0 {
		panic(fmt.Sprintf("workload %s: non-positive parallelism %v", m.Name, parallelism))
	}
	work := float64(n) * m.RecordCost * m.iterFactor()
	if m.IterJitter > 0 {
		work *= noise.NoiseFactor(m.IterJitter)
	}
	secs := m.InitBase + m.PerExecOverhead*float64(executors) + work/parallelism
	secs *= noise.NoiseFactor(m.NoiseCV)
	if secs < 0.001 {
		secs = 0.001
	}
	return time.Duration(secs * float64(time.Second))
}

// iterFactor returns the current ML iteration multiplier.
func (m *CostModel) iterFactor() float64 {
	if m.IterInitial <= 1 || m.IterTau <= 0 {
		return 1
	}
	return 1 + (m.IterInitial-1)*math.Exp(-float64(m.batchesSinceReset)/m.IterTau)
}

// NoteBatch records that one more batch was processed, advancing model fit.
func (m *CostModel) NoteBatch() { m.batchesSinceReset++ }

// Result is the output of semantically processing one batch.
type Result struct {
	Records int
	// Output is a small map of named aggregates (counts, losses, top keys).
	Output map[string]float64
	// Note is a one-line human-readable summary.
	Note string
}

// Workload couples a cost model with a semantic implementation and the
// paper's experimental input-rate band for that application (§6.2.2).
type Workload interface {
	// Name returns the workload's display name.
	Name() string
	// Model returns the (stateful) cost model instance.
	Model() *CostModel
	// RateBand returns the paper's [min, max] input rate in records/second.
	RateBand() (min, max float64)
	// GenValue synthesises the payload of the i-th record.
	GenValue(i int64, r *rng.Stream) string
	// ProcessBatch semantically processes concrete records.
	ProcessBatch(recs []broker.Record) Result
}

// New returns a fresh instance of the named workload. Valid names:
// "logreg", "linreg", "wordcount", "pageanalyze".
func New(name string) (Workload, error) {
	switch name {
	case "logreg":
		return NewLogisticRegression(), nil
	case "linreg":
		return NewLinearRegression(), nil
	case "wordcount":
		return NewWordCount(), nil
	case "pageanalyze":
		return NewPageAnalyze(), nil
	default:
		return nil, fmt.Errorf("workload: unknown workload %q", name)
	}
}

// All returns fresh instances of the paper's four workloads, in the order
// they appear in §6.1.
func All() []Workload {
	return []Workload{
		NewLogisticRegression(),
		NewLinearRegression(),
		NewWordCount(),
		NewPageAnalyze(),
	}
}

// Names lists the valid workload names accepted by New.
func Names() []string { return []string{"logreg", "linreg", "wordcount", "pageanalyze"} }
