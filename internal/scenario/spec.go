// Package scenario is the capacity-planning and hypothesis harness: it
// answers operator questions — "will this deployment hold this load within
// these SLOs?" — ahead of time, from a declarative spec instead of a
// hand-written experiment.
//
// A Spec states a workload, a deployment (controller + initial
// configuration + input-rate trace), an optional fault plan, a set of SLO
// predicates ("delay_p99 < 2s", "recovery < 2m", "shed_fraction < 0.01"),
// and the hypothesis those predicates formalize. The runner expands the
// spec onto the fleet orchestrator (one replicated job per seed), evaluates
// every SLO against the per-run metrics registry and batch history, and
// emits a deterministic, byte-stable verdict report: per-SLO Student-t 95%
// confidence intervals, three-valued verdicts (PASS / FAIL / INCONCLUSIVE —
// an interval straddling its threshold refuses to pretend certainty), and,
// for every violated predicate, a first-violation pointer carrying the
// sim-time instant and a Chrome-trace span reference into that seed's
// trace file.
//
// Determinism contract: a report is a pure function of the spec. Runs reuse
// the fleet job seed paths, observability is passive, evaluation walks
// history in simulation order, and the report encodes with encoding/json's
// stable field order — so the same spec encodes to identical bytes at any
// parallelism. docs/SCENARIOS.md is the user-facing reference for the spec
// format, the predicate grammar, and the verdict semantics.
package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"nostop/internal/controllers"
	"nostop/internal/core"
	"nostop/internal/faults"
	"nostop/internal/fleet"
	"nostop/internal/sim"
	"nostop/internal/tenant"
)

// Seeds is the replication axis: a list of root seeds, one job per seed.
// In spec JSON it decodes from either an explicit array ([1, 2, 3]) or a
// seed-range string ("1-5", "1,2,5-8" — the nostop-fleet grammar); it
// always encodes back as the explicit array, which is the normalized form
// reports carry.
type Seeds []uint64

// UnmarshalJSON implements json.Unmarshaler (array or range string).
func (s *Seeds) UnmarshalJSON(b []byte) error {
	if len(b) > 0 && b[0] == '"' {
		var expr string
		if err := json.Unmarshal(b, &expr); err != nil {
			return err
		}
		list, err := fleet.ParseSeeds(expr)
		if err != nil {
			return fmt.Errorf("scenario: seeds: %v", err)
		}
		*s = list
		return nil
	}
	var list []uint64
	if err := json.Unmarshal(b, &list); err != nil {
		return err
	}
	*s = list
	return nil
}

// FaultSpec is the human-authored form of one fault window. It mirrors
// faults.Fault with names instead of enum values and duration strings
// instead of nanosecond counts.
type FaultSpec struct {
	// Kind names the fault class: node-crash, straggler, task-failures,
	// partition-outage, or ingest-spike.
	Kind string `json:"kind"`
	// At is when the window opens, in virtual time from the run start.
	At fleet.Duration `json:"at"`
	// Duration is how long the window stays open.
	Duration fleet.Duration `json:"duration"`
	// Node targets node-crash and straggler windows.
	Node int `json:"node,omitempty"`
	// Partition targets partition-outage windows.
	Partition int `json:"partition,omitempty"`
	// Factor is the straggler slowdown or ingest-spike multiplier (> 1).
	Factor float64 `json:"factor,omitempty"`
	// Prob is the task-failures per-attempt failure probability in (0, 1].
	Prob float64 `json:"prob,omitempty"`
}

// fault converts the spec form to the injector's Fault.
func (f FaultSpec) fault() (faults.Fault, error) {
	kind, err := faults.ParseKind(f.Kind)
	if err != nil {
		return faults.Fault{}, err
	}
	return faults.Fault{
		Kind:      kind,
		At:        sim.Time(f.At),
		Duration:  f.Duration.D(),
		NodeID:    f.Node,
		Partition: f.Partition,
		Factor:    f.Factor,
		Prob:      f.Prob,
	}, nil
}

// Verdict values for SLOs and hypotheses. An SLO passes or fails only when
// its whole confidence interval sits on one side of the threshold;
// anything else is inconclusive, following the uncertainty-aware
// configuration literature: a capacity verdict without its interval is a
// guess.
const (
	// VerdictConfirmed: every SLO passed (hypothesis CONFIRMED).
	VerdictConfirmed = "CONFIRMED"
	// VerdictRejected: at least one SLO failed (hypothesis REJECTED).
	VerdictRejected = "REJECTED"
	// VerdictInconclusive: no SLO failed but at least one interval
	// straddles its threshold — add seeds or widen the margin.
	VerdictInconclusive = "INCONCLUSIVE"

	// SLOPass / SLOFail / SLOInconclusive are the per-predicate verdicts.
	SLOPass         = "PASS"
	SLOFail         = "FAIL"
	SLOInconclusive = "INCONCLUSIVE"
)

// Spec is one capacity question: a deployment, a load, an optional fault
// plan, and the SLO predicates that formalize the hypothesis. Zero optional
// fields resolve to the fleet defaults (Normalize), so the report records
// exactly what ran.
type Spec struct {
	// Name labels the scenario; reports and artifact directories use it.
	Name string `json:"name"`
	// Hypothesis is the operator question the SLOs formalize, verbatim.
	Hypothesis string `json:"hypothesis"`
	// Expect optionally declares the verdict this spec is expected to
	// produce (CONFIRMED, REJECTED, or INCONCLUSIVE). Checked-in example
	// specs carry it so CI can gate on `nostop-ask -selftest`.
	Expect string `json:"expect,omitempty"`
	// Workload is the registry name (logreg, linreg, wordcount,
	// pageanalyze).
	Workload string `json:"workload"`
	// Controller is the deployment's tuner, one of the controller registry
	// names (controllers.Names; catalog in docs/CONTROLLERS.md). Empty
	// means static.
	Controller string `json:"controller,omitempty"`
	// Seeds are the replication seeds ("1-5" or [1, 2, 3]).
	Seeds Seeds `json:"seeds"`
	// Horizon is the virtual duration of each replication; 0 means 40m.
	Horizon fleet.Duration `json:"horizon,omitempty"`
	// Warmup is the fraction of each run discarded before measuring;
	// 0 means 0.5.
	Warmup float64 `json:"warmup,omitempty"`
	// Trace is the input-rate trace; the zero value is the workload's own
	// rate band redrawn every 5s.
	Trace fleet.TraceSpec `json:"trace,omitempty"`
	// Initial overrides the engine's initial configuration; zero fields
	// keep the defaults (30s interval, 8 executors).
	Initial fleet.Static `json:"initial,omitempty"`
	// Faults is the optional fault plan every replication replays.
	Faults []FaultSpec `json:"faults,omitempty"`
	// Space optionally widens the configuration space the deployment tunes
	// over (core.ConfigSpace v1; grammar in docs/CONTROLLERS.md). Nil
	// keeps the engine's default two-parameter bounds.
	Space *core.ConfigSpace `json:"space,omitempty"`
	// Tenancy switches the scenario to multi-tenant mode: replications run
	// a tenant mix through the cluster allocator instead of a single app,
	// and SLO predicates may target one tenant with a `<tenant>:` prefix
	// ("steady:delay_p95 < 8s"). Workload/Controller/Trace/Initial/Faults
	// are unused (and rejected) in this mode.
	Tenancy *TenancySpec `json:"tenancy,omitempty"`
	// SLOs are the predicates, one per line of the grammar
	// `<metric> <op> <threshold>` (see docs/SCENARIOS.md).
	SLOs []string `json:"slos"`
}

// TenancySpec is the multi-tenant deployment under test: a tenant mix plus
// an optional contrast allocator. With a contrast, every seed runs twice —
// once under Mix.Allocator, once under the contrast — and the hypothesis is
// confirmed only when the SLOs hold under the primary AND break under the
// contrast: the differential verdict that proves the allocator itself, not
// spare capacity, produced the outcome.
type TenancySpec struct {
	// Mix is the tenant mix (see docs/TENANCY.md for the format). Its
	// horizon/warmup are overridden by the scenario's.
	Mix tenant.MixSpec `json:"mix"`
	// ContrastAllocator, when set, names the policy for the contrast runs.
	ContrastAllocator string `json:"contrast_allocator,omitempty"`
}

// Decode reads a spec from strict JSON: unknown fields are errors, so a
// typo'd field name fails loudly instead of silently running the default.
func Decode(data []byte) (Spec, error) {
	var spec Spec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		return Spec{}, fmt.Errorf("scenario: decoding spec: %v", err)
	}
	// A second document in the same file is almost certainly a mistake.
	if dec.More() {
		return Spec{}, fmt.Errorf("scenario: trailing data after spec object")
	}
	return spec, nil
}

// Normalize resolves every default so the report records exactly what ran:
// controller, horizon, warmup, and trace defaults are filled in, and the
// expected verdict is upper-cased. Tenancy specs instead default their
// horizon/warmup directly and normalize the mix (the single-app axes stay
// zero — they are unused in that mode).
func (s Spec) Normalize() Spec {
	s.Expect = strings.ToUpper(s.Expect)
	if s.Tenancy != nil {
		t := *s.Tenancy // copy: Normalize must not mutate the caller's spec
		s.Tenancy = &t
		if s.Horizon == 0 {
			s.Horizon = fleet.Duration(40 * time.Minute)
		}
		if s.Warmup == 0 {
			s.Warmup = 0.5
		}
		if mix, err := s.tenancyMix(t.Mix.Allocator); err == nil {
			t.Mix = mix // Validate reports the error; nothing to normalize.
		}
		return s
	}
	if s.Controller == "" {
		s.Controller = fleet.ControllerStatic
	}
	fs := s.fleetSpec()
	jobs, err := fs.Expand()
	if err != nil || len(jobs) == 0 {
		return s // Validate reports the error; nothing to normalize.
	}
	s.Horizon = jobs[0].Horizon
	s.Warmup = jobs[0].Warmup
	s.Trace = jobs[0].Trace
	return s
}

// plan converts the fault specs to an injector plan.
func (s Spec) plan() (faults.Plan, error) {
	var plan faults.Plan
	for i, f := range s.Faults {
		ft, err := f.fault()
		if err != nil {
			return nil, fmt.Errorf("scenario: fault %d: %v", i, err)
		}
		plan = append(plan, ft)
	}
	return plan, nil
}

// planName labels the fault plan in fleet job seed paths. It is derived
// from the scenario name so two scenarios with different names but equal
// plans still draw independent randomness only where the axes differ —
// matching fleet's rule that the label, not the name, enters the path.
func (s Spec) planName() string {
	if len(s.Faults) == 0 {
		return ""
	}
	return s.Name + "-faults"
}

// fleetSpec maps the scenario onto a single-cell fleet sweep: every axis a
// singleton except the seeds, which replicate it.
func (s Spec) fleetSpec() fleet.Spec {
	fs := fleet.Spec{
		Name:        s.Name,
		Seeds:       []uint64(s.Seeds),
		Workloads:   []string{s.Workload},
		Controllers: []string{s.Controller},
		Horizon:     s.Horizon,
		Warmup:      s.Warmup,
		Traces:      []fleet.TraceSpec{s.Trace},
		Initials:    []fleet.Static{s.Initial},
		Space:       s.Space,
	}
	if plan, err := s.plan(); err == nil && len(plan) > 0 {
		fs.Plans = []fleet.NamedPlan{{Name: s.planName(), Faults: plan}}
	}
	return fs
}

// tenancyMix maps the scenario's horizon and warmup fraction onto the
// tenant mix under the given allocator policy and returns the normalized
// mix. The scenario owns the time axes so the primary and contrast runs are
// guaranteed to measure the same window.
func (s Spec) tenancyMix(allocator string) (tenant.MixSpec, error) {
	mix := s.Tenancy.Mix
	mix.Allocator = allocator
	horizon := s.Horizon
	if horizon == 0 {
		horizon = fleet.Duration(40 * time.Minute)
	}
	warmup := s.Warmup
	if warmup == 0 {
		warmup = 0.5
	}
	mix.Horizon = tenant.Duration(horizon)
	mix.Warmup = tenant.Duration(float64(horizon) * warmup)
	norm, err := mix.Validate()
	if err != nil {
		return norm, fmt.Errorf("scenario: %v", err)
	}
	return norm, nil
}

// validateTenancy checks a tenancy-mode spec: the mix itself, the contrast
// allocator, and the cross-field rules — faults and the single-app axes are
// rejected, and tenant-prefixed SLOs must name a tenant that exists.
func (s Spec) validateTenancy() error {
	if len(s.Faults) > 0 {
		return fmt.Errorf("scenario: faults are not yet supported with tenancy")
	}
	if s.Workload != "" || s.Controller != "" {
		return fmt.Errorf("scenario: workload/controller come from the tenant mix; drop them from a tenancy spec")
	}
	if s.Trace != (fleet.TraceSpec{}) || s.Initial != (fleet.Static{}) {
		return fmt.Errorf("scenario: trace/initial come from the tenant mix; drop them from a tenancy spec")
	}
	if len(s.Seeds) == 0 {
		return fmt.Errorf("scenario: spec has no seeds")
	}
	if s.Warmup < 0 || s.Warmup >= 1 {
		return fmt.Errorf("scenario: warmup %v outside [0, 1)", s.Warmup)
	}
	mix, err := s.tenancyMix(s.Tenancy.Mix.Allocator)
	if err != nil {
		return err
	}
	if c := s.Tenancy.ContrastAllocator; c != "" {
		switch c {
		case tenant.AllocPriority, tenant.AllocFairShare, tenant.AllocStatic:
		default:
			return fmt.Errorf("scenario: unknown contrast allocator %q (want %s, %s, or %s)",
				c, tenant.AllocPriority, tenant.AllocFairShare, tenant.AllocStatic)
		}
		if c == mix.Allocator {
			return fmt.Errorf("scenario: contrast allocator %q equals the primary — the differential would be vacuous", c)
		}
	}
	if len(s.SLOs) == 0 {
		return fmt.Errorf("scenario: spec has no slos")
	}
	names := make(map[string]bool)
	for _, t := range mix.Tenants {
		names[t.Name] = true
	}
	for _, text := range s.SLOs {
		slo, err := ParseSLO(text)
		if err != nil {
			return err
		}
		if slo.def.needsFaults {
			return fmt.Errorf("scenario: slo %q needs a fault plan, and faults are not yet supported with tenancy", text)
		}
		if slo.Tenant != "" && !names[slo.Tenant] {
			return fmt.Errorf("scenario: slo %q targets unknown tenant %q (mix has %s)",
				text, slo.Tenant, strings.Join(mix.TenantNames(), ", "))
		}
	}
	switch s.Expect {
	case "", VerdictConfirmed, VerdictRejected, VerdictInconclusive:
	default:
		return fmt.Errorf("scenario: unknown expect %q (want %s, %s, or %s)",
			s.Expect, VerdictConfirmed, VerdictRejected, VerdictInconclusive)
	}
	return nil
}

// Validate checks the whole spec: deployment axes (via fleet), fault
// windows (via the injector's plan validation), SLO predicates, and the
// cross-field rules (recovery needs a fault plan; expect must name a
// verdict).
func (s Spec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("scenario: spec has no name")
	}
	if s.Hypothesis == "" {
		return fmt.Errorf("scenario: spec has no hypothesis")
	}
	s = s.Normalize()
	if s.Tenancy != nil {
		return s.validateTenancy()
	}
	plan, err := s.plan()
	if err != nil {
		return err
	}
	if err := plan.Validate(); err != nil {
		return fmt.Errorf("scenario: %v", err)
	}
	// Controller names come from the shared registry, and the rejection is
	// the registry's own error verbatim: an unknown controller fails with
	// identical text whether a fleet spec or a scenario spec named it.
	if _, ok := controllers.Lookup(s.Controller); !ok {
		return controllers.UnknownError(s.Controller)
	}
	if err := s.fleetSpec().Validate(); err != nil {
		return fmt.Errorf("scenario: %v", err)
	}
	if len(s.SLOs) == 0 {
		return fmt.Errorf("scenario: spec has no slos")
	}
	for _, text := range s.SLOs {
		slo, err := ParseSLO(text)
		if err != nil {
			return err
		}
		if slo.def.needsFaults && len(s.Faults) == 0 {
			return fmt.Errorf("scenario: slo %q needs a fault plan (recovery is measured after the last fault window lifts)", text)
		}
		if slo.Tenant != "" {
			return fmt.Errorf("scenario: slo %q targets a tenant but the spec has no tenancy section", text)
		}
	}
	switch s.Expect {
	case "", VerdictConfirmed, VerdictRejected, VerdictInconclusive:
	default:
		return fmt.Errorf("scenario: unknown expect %q (want %s, %s, or %s)",
			s.Expect, VerdictConfirmed, VerdictRejected, VerdictInconclusive)
	}
	return nil
}
