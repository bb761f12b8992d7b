// Package experiments regenerates every table and figure of the paper's
// evaluation (§6) against the simulated substrate. Each experiment returns
// a structured result with a text and a CSV renderer; the nostop-bench
// command is the one way to run them.
//
// Per-experiment index (see DESIGN.md §3 for the mapping discussion):
//
//	Table2()       – the heterogeneous cluster inventory
//	Fig2(cfg)      – batch interval vs processing time / schedule delay
//	Fig3(cfg)      – executor count vs processing time / schedule delay
//	Fig5(cfg)      – time-varying input rate traces per workload
//	Fig6(cfg)      – NoStop's optimization evolution per workload
//	Fig7(cfg)      – improvement over the default configuration (5 runs)
//	Fig8(cfg)      – SPSA vs Bayesian Optimization (5 runs)
//	BackPressure(cfg) – NoStop vs Spark back-pressure (abstract's claim)
//	Ablation*(cfg) – design-choice studies from DESIGN.md §4
//	Extension*(cfg) – the paper's §7 future work, implemented
//	Chaos(cfg)     – recovery under a fault plan (DESIGN.md §5c)
//	ControllerZoo(cfg) – every zoo controller under the chaos plan (§5k)
//
// Experiments() names each of them once, in the order RunAll renders them.
package experiments

import (
	"fmt"
	"io"
	"runtime"
	"strings"
	"time"

	"nostop/internal/baselines"
	"nostop/internal/cluster"
	"nostop/internal/core"
	"nostop/internal/engine"
	"nostop/internal/faults"
	"nostop/internal/fleet"
	"nostop/internal/ratetrace"
	"nostop/internal/rng"
	"nostop/internal/sim"
	"nostop/internal/stats"
	"nostop/internal/workload"
)

// Config controls experiment scale.
type Config struct {
	// Seed drives every stochastic component; runs with equal seeds are
	// bit-identical.
	Seed uint64
	// Repetitions for the averaged experiments; 0 means the paper's 5.
	Repetitions int
	// Horizon is the virtual duration of each run; 0 means 2h.
	Horizon time.Duration
	// Warmup is the fraction of each run discarded before measuring
	// steady state; 0 means 0.7 (the optimizer needs most of the run to
	// converge, and the figures report converged performance).
	Warmup float64
	// Parallelism bounds how many independent simulation runs execute
	// concurrently inside one experiment (via the fleet worker pool);
	// 0 means NumCPU. It changes wall time only: every run's seeds are
	// fixed up front and results land in per-run slots, so the rendered
	// tables are byte-identical at any parallelism.
	Parallelism int
}

// Validate rejects a negative repetition count, horizon or parallelism and
// a warmup outside [0, 1). Zero fields pass: they mean their defaults.
func (c Config) Validate() error {
	if c.Repetitions < 0 {
		return fmt.Errorf("experiments: negative repetitions %d", c.Repetitions)
	}
	if c.Horizon < 0 {
		return fmt.Errorf("experiments: negative horizon %v", c.Horizon)
	}
	if c.Parallelism < 0 {
		return fmt.Errorf("experiments: negative parallelism %d", c.Parallelism)
	}
	if !(c.Warmup >= 0 && c.Warmup < 1) {
		return fmt.Errorf("experiments: warmup %.2f outside [0, 1)", c.Warmup)
	}
	return nil
}

func (c Config) withDefaults() Config {
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Repetitions == 0 {
		c.Repetitions = 5
	}
	if c.Horizon == 0 {
		c.Horizon = 2 * time.Hour
	}
	if c.Warmup == 0 {
		c.Warmup = 0.7
	}
	if c.Parallelism == 0 {
		c.Parallelism = runtime.NumCPU()
	}
	return c
}

// parallelFor fans fn(i) for i in [0,n) out over the fleet worker pool at
// the configured parallelism. Callers precompute per-index seeds and write
// only index-owned slots, which keeps results order-independent.
func (c Config) parallelFor(n int, fn func(int) error) error {
	return fleet.ParallelFor(n, c.Parallelism, fn)
}

// Quick returns a configuration small enough for unit tests: one
// repetition over a 40-minute horizon.
func Quick() Config {
	return Config{Seed: 1, Repetitions: 1, Horizon: 40 * time.Minute, Warmup: 0.5}
}

// Table is a rendered experiment result: a title, a header row, and rows of
// formatted cells.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
	// Notes carry the qualitative observations that accompany the
	// paper's figure (who wins, where the knee is).
	Notes []string
}

// Render writes an aligned text table.
func (t *Table) Render(w io.Writer) {
	fmt.Fprintf(w, "%s\n", t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		fmt.Fprintf(w, "  %s\n", strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// CSV writes the table as comma-separated values.
func (t *Table) CSV(w io.Writer) {
	fmt.Fprintln(w, strings.Join(t.Header, ","))
	for _, row := range t.Rows {
		fmt.Fprintln(w, strings.Join(row, ","))
	}
}

// bandTrace builds the §6.2.2 uniform-band trace for a workload.
func bandTrace(wl workload.Workload, seed *rng.Stream) ratetrace.Trace {
	min, max := wl.RateBand()
	return ratetrace.NewUniformBand(min, max, 5*time.Second, seed.Split("trace-"+wl.Name()))
}

// runResult captures one finished run.
type runResult struct {
	history []engine.BatchStats
	eng     *engine.Engine
	ctl     *core.Controller    // nil unless NoStop ran
	bo      *baselines.BayesOpt // nil unless BayesOpt ran
	inj     *faults.Injector    // nil for a fault-free run
}

// tailE2E returns steady-state end-to-end delays (after warmup), skipping
// reconfiguration batches.
func (r *runResult) tailE2E(warmup float64) []float64 {
	start := int(float64(len(r.history)) * warmup)
	var out []float64
	for _, b := range r.history[start:] {
		if b.FirstAfterReconfig {
			continue
		}
		out = append(out, b.EndToEndDelay.Seconds())
	}
	return out
}

// newSetup is the harness's standard run of a named workload under a
// registry controller: a fresh workload instance on its §6.2.2 band trace,
// from the default configuration.
func newSetup(wlName, controller string, seed *rng.Stream) (fleet.Setup, error) {
	wl, err := workload.New(wlName)
	if err != nil {
		return fleet.Setup{}, err
	}
	return fleet.Setup{Workload: wl, Trace: bandTrace(wl, seed), Seed: seed, Controller: controller}, nil
}

// runOn runs newSetup's run over the horizon; edit, when non-nil, adjusts
// the setup (trace, initial config, bounds, NoStop options) first.
func runOn(wlName, controller string, horizon time.Duration, seed *rng.Stream, edit func(*fleet.Setup)) (*runResult, error) {
	s, err := newSetup(wlName, controller, seed)
	if err != nil {
		return nil, err
	}
	if edit != nil {
		edit(&s)
	}
	det, err := fleet.Assemble(s, fleet.Observe{})
	if err != nil {
		return nil, err
	}
	return finish(det, horizon), nil
}

// finish advances an assembled run to the horizon and captures it.
func finish(det *fleet.RunDetail, horizon time.Duration) *runResult {
	det.Engine.Clock().RunUntil(sim.Time(horizon))
	r := &runResult{history: det.Engine.History(), eng: det.Engine, inj: det.Injector}
	r.ctl, _ = det.Controller.(*core.Controller)
	r.bo, _ = det.Controller.(*baselines.BayesOpt)
	return r
}

// meanStd formats "m ± s".
func meanStd(xs []float64) string {
	s := stats.Summarize(xs)
	return fmt.Sprintf("%.2f ± %.2f", s.Mean, s.Std)
}

// Table2 renders the paper's cluster inventory from the live model.
func Table2() *Table {
	t := &Table{
		Title:  "Table 2: List of cluster nodes",
		Header: []string{"Node ID", "CPU", "Cores", "Disk", "Type", "Speed", "DiskFactor"},
	}
	for _, n := range cluster.Table2().Nodes() {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", n.ID),
			n.CPUModel,
			fmt.Sprintf("%d", n.Cores),
			n.Disk.String(),
			n.Role.String(),
			fmt.Sprintf("%.2f", n.SpeedFactor),
			fmt.Sprintf("%.2f", n.DiskFactor),
		})
	}
	t.Notes = append(t.Notes, "speed/disk factors are the simulation's heterogeneity model")
	return t
}

// Experiment is one named table or figure of the evaluation.
type Experiment struct {
	Name string
	Run  func(Config) (*Table, error)
}

// Experiments lists every experiment in the order RunAll renders them. It
// is the one mapping from experiment name to function: nostop-bench
// -experiment looks names up here.
func Experiments() []Experiment {
	return []Experiment{
		{"table2", func(Config) (*Table, error) { return Table2(), nil }},
		{"fig2", Fig2},
		{"fig3", Fig3},
		{"fig5", Fig5},
		{"fig6", Fig6},
		{"fig7", Fig7},
		{"fig8", Fig8},
		{"backpressure", BackPressure},
		{"abl-penalty", AblationPenaltyRamp},
		{"abl-firstbatch", AblationFirstBatch},
		{"abl-window", AblationWindow},
		{"abl-reset", AblationReset},
		{"abl-gains", AblationGains},
		{"abl-scaling", AblationScaling},
		{"abl-stepclip", AblationStepClip},
		{"abl-objective", AblationObjective},
		{"ext-3param", Extension3Param},
		{"ext-autogains", ExtensionAutoGains},
		{"ext-failure", ExtensionNodeFailure},
		{"chaos", Chaos},
		{"zoo", ControllerZoo},
	}
}

// Names returns every experiment name, in Experiments order.
func Names() []string {
	var names []string
	for _, e := range Experiments() {
		names = append(names, e.Name)
	}
	return names
}

// Lookup returns the experiment with the given name.
func Lookup(name string) (Experiment, bool) {
	for _, e := range Experiments() {
		if e.Name == name {
			return e, true
		}
	}
	return Experiment{}, false
}

// RunAll executes every experiment at the given scale and renders them.
func RunAll(w io.Writer, cfg Config) error {
	cfg = cfg.withDefaults()
	for _, e := range Experiments() {
		t, err := e.Run(cfg)
		if err != nil {
			return err
		}
		t.Render(w)
	}
	return nil
}
