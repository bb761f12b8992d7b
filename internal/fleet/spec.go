// Package fleet orchestrates parallel multi-run experiment sweeps over the
// single-threaded simulation core.
//
// A declarative Spec (grid of seeds × workloads × controllers × rate traces ×
// fault plans × initial configurations) expands into independent Jobs. Each
// job builds its own sim.Clock, engine, and controller, so jobs share no
// mutable state and can execute concurrently on a bounded worker pool without
// violating the simgoroutine contract: the goroutines live here, *outside*
// the simulation packages (internal/fleet is allowlisted in
// analysis.DefaultConfig), and each goroutine runs a complete single-threaded
// simulation.
//
// Determinism contract: a job's entire stochastic behaviour is a pure
// function of its Job value — the worker that runs it, the order jobs finish,
// and the parallelism level never leak into results. Results are merged back
// in spec-expansion order and aggregates are computed only after that sorted
// merge, so the manifest produced at parallelism 8 is byte-identical to the
// one produced at parallelism 1. Completed jobs are cached in a Store keyed
// by a content hash of the Job, which is what makes sweeps resumable: a
// re-invocation skips every job whose artifact is already present and valid.
//
// The package never reads the wall clock; progress timing lives in the
// cmd/nostop-fleet CLI, and nothing wall-clock-derived enters a manifest.
package fleet

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"time"

	"nostop/internal/controllers"
	"nostop/internal/core"
	"nostop/internal/faults"
	"nostop/internal/tenant"
	"nostop/internal/workload"
)

// Duration is a time.Duration that marshals as a human-readable duration
// string ("40m0s") in spec and manifest JSON and unmarshals from either a
// duration string or integer nanoseconds.
type Duration time.Duration

// D converts back to time.Duration.
func (d Duration) D() time.Duration { return time.Duration(d) }

// String renders the underlying duration.
func (d Duration) String() string { return time.Duration(d).String() }

// MarshalJSON implements json.Marshaler.
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// UnmarshalJSON implements json.Unmarshaler.
func (d *Duration) UnmarshalJSON(b []byte) error {
	if len(b) > 0 && b[0] == '"' {
		var s string
		if err := json.Unmarshal(b, &s); err != nil {
			return err
		}
		v, err := time.ParseDuration(s)
		if err != nil {
			return fmt.Errorf("fleet: bad duration %q: %v", s, err)
		}
		*d = Duration(v)
		return nil
	}
	var n int64
	if err := json.Unmarshal(b, &n); err != nil {
		return err
	}
	*d = Duration(n)
	return nil
}

// TraceSpec describes the input-rate trace of a job. The only kind is
// "band": rates re-drawn uniformly in [Min, Max] every Period (the paper's
// §6.2.2 generator). Zero Min/Max means the workload's own rate band; zero
// Period means 5s.
type TraceSpec struct {
	Kind   string   `json:"kind"`
	Min    float64  `json:"min,omitempty"`
	Max    float64  `json:"max,omitempty"`
	Period Duration `json:"period,omitempty"`
}

// withDefaults resolves the open fields so job hashes are fully explicit.
func (t TraceSpec) withDefaults() TraceSpec {
	if t.Kind == "" {
		t.Kind = "band"
	}
	if t.Period == 0 {
		t.Period = Duration(5 * time.Second)
	}
	return t
}

// label renders the trace for aggregate grouping and progress lines.
func (t TraceSpec) label() string {
	if t.Min == 0 && t.Max == 0 {
		return t.Kind
	}
	return fmt.Sprintf("%s[%.0f,%.0f]", t.Kind, t.Min, t.Max)
}

// NamedPlan is a fault plan with a stable name for grouping and display.
// An empty Faults slice means a fault-free run.
type NamedPlan struct {
	Name   string      `json:"name,omitempty"`
	Faults faults.Plan `json:"faults,omitempty"`
}

// label renders the plan name ("none" when fault-free).
func (p NamedPlan) label() string {
	if len(p.Faults) == 0 {
		return "none"
	}
	if p.Name == "" {
		return fmt.Sprintf("%d-faults", len(p.Faults))
	}
	return p.Name
}

// Static overrides the engine's default initial configuration. Zero fields
// keep engine.DefaultConfig's values. For the "static" controller this is
// the configuration the whole run holds; for tuned controllers it is only
// the starting point.
type Static struct {
	Interval  Duration `json:"interval,omitempty"`
	Executors int      `json:"executors,omitempty"`
}

// label renders the override for aggregate grouping ("default" when empty).
func (s Static) label() string {
	if s.Interval == 0 && s.Executors == 0 {
		return "default"
	}
	return fmt.Sprintf("%v/%d", s.Interval, s.Executors)
}

// Controllers the fleet can attach to a run: the names the registry in
// internal/controllers registers, which also holds the per-controller
// conformance metadata.
const (
	ControllerStatic       = controllers.Static
	ControllerNoStop       = controllers.NoStop
	ControllerBackPressure = controllers.BackPressure
	ControllerBayesOpt     = controllers.BayesOpt
	ControllerGP           = controllers.GP
	ControllerRL           = controllers.RL
)

// Spec is a declarative sweep: the cross product of every axis below, one
// job per combination. Empty optional axes (Traces, Plans, Initials)
// contribute a single default element each.
type Spec struct {
	// Name labels the sweep in the manifest; it does not enter job hashes.
	Name string `json:"name,omitempty"`
	// Seeds are the root random seeds; one replication per seed.
	Seeds []uint64 `json:"seeds"`
	// Workloads are registry names (logreg, linreg, wordcount, pageanalyze).
	Workloads []string `json:"workloads"`
	// Controllers are the tuner variants to attach (see Controller*).
	Controllers []string `json:"controllers"`
	// Horizon is the virtual duration of each run; 0 means 40m.
	Horizon Duration `json:"horizon,omitempty"`
	// Warmup is the fraction of each run discarded before measuring
	// steady state; 0 means 0.5.
	Warmup float64 `json:"warmup,omitempty"`
	// Traces optionally sweeps input-rate traces; empty means one
	// workload-band trace.
	Traces []TraceSpec `json:"traces,omitempty"`
	// Plans optionally sweeps fault plans; empty means one fault-free run.
	Plans []NamedPlan `json:"plans,omitempty"`
	// Initials optionally sweeps initial configurations; empty means the
	// engine default.
	Initials []Static `json:"initials,omitempty"`
	// Mixes optionally sweeps multi-tenant mixes (tenant.MixSpec): each
	// mix × seed is one job running the full tenant subsystem instead of a
	// single workload/controller pair. A spec may combine Mixes with the
	// single-app axes; the two expand independently.
	Mixes []tenant.MixSpec `json:"mixes,omitempty"`
	// Space optionally widens the configuration space every single-app job
	// tunes over (core.ConfigSpace v1 — see docs/CONTROLLERS.md): the
	// engine's bounds come from the space, and space-aware controllers
	// (gp, rl) explore all its axes. Nil keeps the engine's default
	// two-parameter bounds. omitempty keeps pre-space job hashes — and
	// therefore cached artifacts — valid.
	Space *core.ConfigSpace `json:"space,omitempty"`
}

// normalized returns the spec with every default resolved, so the manifest
// records exactly what ran.
func (s Spec) normalized() Spec {
	if s.Horizon == 0 {
		s.Horizon = Duration(40 * time.Minute)
	}
	if s.Warmup == 0 {
		s.Warmup = 0.5
	}
	if len(s.Traces) == 0 {
		s.Traces = []TraceSpec{{}}
	}
	for i := range s.Traces {
		s.Traces[i] = s.Traces[i].withDefaults()
	}
	if len(s.Plans) == 0 {
		s.Plans = []NamedPlan{{}}
	}
	if len(s.Initials) == 0 {
		s.Initials = []Static{{}}
	}
	return s
}

// Validate checks the spec axes without expanding them.
func (s Spec) Validate() error {
	s = s.normalized()
	if len(s.Seeds) == 0 {
		return fmt.Errorf("fleet: spec has no seeds")
	}
	for i, m := range s.Mixes {
		if _, err := m.Validate(); err != nil {
			return fmt.Errorf("fleet: mix %d: %v", i, err)
		}
	}
	if len(s.Workloads) == 0 && len(s.Controllers) == 0 && len(s.Mixes) > 0 {
		return nil // pure tenant-mix sweep: the single-app axes stay empty
	}
	if len(s.Workloads) == 0 {
		return fmt.Errorf("fleet: spec has no workloads")
	}
	if len(s.Controllers) == 0 {
		return fmt.Errorf("fleet: spec has no controllers")
	}
	for _, name := range s.Workloads {
		if _, err := workload.New(name); err != nil {
			return fmt.Errorf("fleet: %v", err)
		}
	}
	for _, c := range s.Controllers {
		if _, ok := controllers.Lookup(c); !ok {
			return controllers.UnknownError(c)
		}
	}
	if s.Space != nil {
		if err := s.Space.Validate(); err != nil {
			return fmt.Errorf("fleet: space: %v", err)
		}
	}
	if s.Warmup < 0 || s.Warmup >= 1 {
		return fmt.Errorf("fleet: warmup %.2f outside [0, 1)", s.Warmup)
	}
	if s.Horizon <= 0 {
		return fmt.Errorf("fleet: non-positive horizon %v", s.Horizon)
	}
	for _, t := range s.Traces {
		if t.Kind != "band" {
			return fmt.Errorf("fleet: unknown trace kind %q", t.Kind)
		}
		if (t.Min != 0 || t.Max != 0) && t.Min >= t.Max {
			return fmt.Errorf("fleet: trace band [%.0f, %.0f] is empty", t.Min, t.Max)
		}
	}
	for _, p := range s.Plans {
		if err := p.Faults.Validate(); err != nil {
			return fmt.Errorf("fleet: plan %s: %v", p.label(), err)
		}
	}
	return nil
}

// Expand resolves defaults and returns one fully-explicit Job per grid
// point, in a deterministic order: workloads × controllers × traces × plans
// × initials, with seeds innermost so one aggregation cell's replications
// are contiguous.
func (s Spec) Expand() ([]Job, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	s = s.normalized()
	var jobs []Job
	for i := range s.Mixes {
		// Normalize through Validate so the hashed mix is fully explicit
		// (Validate passed above, so the error is unreachable).
		m, _ := s.Mixes[i].Validate()
		for _, seed := range s.Seeds {
			mix := m
			jobs = append(jobs, Job{
				Workload:   "tenants",
				Controller: m.Allocator,
				Seed:       seed,
				// The mix carries its own horizon/warmup; the job copies
				// them so manifest rows stay self-describing.
				Horizon: Duration(m.Horizon),
				Warmup:  s.Warmup,
				Mix:     &mix,
			})
		}
	}
	for _, wl := range s.Workloads {
		for _, ctl := range s.Controllers {
			for _, tr := range s.Traces {
				for _, plan := range s.Plans {
					for _, init := range s.Initials {
						for _, seed := range s.Seeds {
							jobs = append(jobs, Job{
								Workload:   wl,
								Controller: ctl,
								Seed:       seed,
								Horizon:    s.Horizon,
								Warmup:     s.Warmup,
								Trace:      tr,
								Plan:       plan,
								Initial:    init,
								Space:      s.Space,
							})
						}
					}
				}
			}
		}
	}
	return jobs, nil
}

// Job is one fully-resolved simulation run: every field that influences the
// run is explicit here, which is what makes the content hash a complete key.
type Job struct {
	Workload   string    `json:"workload"`
	Controller string    `json:"controller"`
	Seed       uint64    `json:"seed"`
	Horizon    Duration  `json:"horizon"`
	Warmup     float64   `json:"warmup"`
	Trace      TraceSpec `json:"trace"`
	Plan       NamedPlan `json:"plan"`
	Initial    Static    `json:"initial"`
	// Mix, when non-nil, makes this a multi-tenant job: the run executes
	// tenant.Run over the mix instead of a single engine. omitempty keeps
	// single-app job hashes identical to pre-tenant releases, so cached
	// artifacts stay valid.
	Mix *tenant.MixSpec `json:"mix,omitempty"`
	// Space, when non-nil, is the widened configuration space the run tunes
	// over: it becomes the engine's bounds and the action space of
	// space-aware controllers. omitempty keeps pre-space job hashes — and
	// cached artifacts — valid.
	Space *core.ConfigSpace `json:"space,omitempty"`
}

// hashVersion is bumped whenever the job encoding or the simulation
// semantics behind it change incompatibly, invalidating cached artifacts.
const hashVersion = "fleet-job-v1"

// Hash returns the job's content hash: SHA-256 over a versioned canonical
// JSON encoding. Two jobs hash equal iff they describe the same run, so the
// hash doubles as the artifact cache key and the manifest row key.
func (j Job) Hash() string {
	enc, err := json.Marshal(j)
	if err != nil {
		// Job contains only marshalable fields; this cannot fail.
		panic(fmt.Sprintf("fleet: hashing job: %v", err))
	}
	h := sha256.New()
	h.Write([]byte(hashVersion))
	h.Write([]byte{'\n'})
	h.Write(enc)
	return hex.EncodeToString(h.Sum(nil))
}

// String renders a compact human-readable job label for progress lines.
func (j Job) String() string {
	if j.Mix != nil {
		return fmt.Sprintf("mix=%s/%s/seed=%d", j.Mix.Name, j.Mix.Allocator, j.Seed)
	}
	return fmt.Sprintf("%s/%s/%s/%s/%s/seed=%d",
		j.Workload, j.Controller, j.Trace.label(), j.Plan.label(), j.Initial.label(), j.Seed)
}

// Cell is the aggregation key: every job axis except the seed. Runs in the
// same cell are replications of the same experiment.
type Cell struct {
	Workload   string    `json:"workload"`
	Controller string    `json:"controller"`
	Trace      TraceSpec `json:"trace"`
	Plan       string    `json:"plan"`
	Initial    Static    `json:"initial"`
	Horizon    Duration  `json:"horizon"`
	Warmup     float64   `json:"warmup"`
	// Mix names the tenant mix for multi-tenant cells; empty otherwise
	// (omitempty keeps pre-tenant cell keys stable).
	Mix string `json:"mix,omitempty"`
}

// Cell returns the job's aggregation cell.
func (j Job) Cell() Cell {
	c := Cell{
		Workload:   j.Workload,
		Controller: j.Controller,
		Trace:      j.Trace,
		Plan:       j.Plan.label(),
		Initial:    j.Initial,
		Horizon:    j.Horizon,
		Warmup:     j.Warmup,
	}
	if j.Mix != nil {
		c.Mix = j.Mix.Name
	}
	return c
}

// key is a canonical string form of the cell, used for grouping.
func (c Cell) key() string {
	enc, err := json.Marshal(c)
	if err != nil {
		panic(fmt.Sprintf("fleet: encoding cell: %v", err))
	}
	return string(enc)
}
