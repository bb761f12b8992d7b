// Package tenant implements the multi-tenant cluster subsystem: N
// independent streaming apps — each with its own topic, workload, arrival
// trace, SLO class, and per-app controller from the registry in
// internal/controllers — sharing one cluster scaled to O(1000) nodes, with
// a cluster-level allocator arbitrating executor grants between the
// competing controllers.
//
// This is the shape the ROADMAP north star calls for: the paper evaluates
// one app on the 5-node Table 2 testbed, but a production deployment
// serving millions of users runs many streaming apps against one big
// cluster, and their online tuners compete for the same executors. The
// subsystem stays entirely on the discrete-event sim clock, so a 1000-node,
// 32-tenant run is deterministic: same seed, byte-identical report.
package tenant

import (
	"encoding/json"
	"fmt"
	"slices"
	"sort"
	"time"

	"nostop/internal/controllers"
	"nostop/internal/engine"
	"nostop/internal/ratetrace"
	"nostop/internal/rng"
	"nostop/internal/sim"
	"nostop/internal/workload"
)

// Duration is a time.Duration that marshals as a human-readable string
// ("30s") and accepts both strings and nanosecond integers. It is the one
// JSON duration of every spec: fleet.Duration names it too. It lives here
// because fleet imports tenant (for the mix sweep axis), not the reverse.
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
			return fmt.Errorf("bad duration %q: %v", s, err)
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

// Allocator policies.
const (
	// AllocPriority grants strictly by priority: higher-priority tenants
	// take their full demand before lower priorities see any capacity.
	AllocPriority = "priority"
	// AllocFairShare is weighted max-min fairness (water-filling): capacity
	// is divided by weight, and headroom left by low-demand tenants is
	// redistributed among the still-hungry.
	AllocFairShare = "fair-share"
	// AllocStatic carves fixed weight-proportional quotas, ignoring demand;
	// unused quota is stranded. The no-arbitration baseline.
	AllocStatic = "static"
)

// TraceSpec describes a tenant's arrival trace declaratively.
type TraceSpec struct {
	// Kind selects the shape: "constant", "uniform", "surge", or "users".
	Kind string `json:"kind"`
	// Rate is the constant rate (records/second) for kind "constant".
	Rate float64 `json:"rate,omitempty"`
	// Min/Max/Dwell configure kind "uniform" (the paper's §6.2.2 band).
	Min   float64  `json:"min,omitempty"`
	Max   float64  `json:"max,omitempty"`
	Dwell Duration `json:"dwell,omitempty"`
	// Base/Peak/Start/Length configure kind "surge".
	Base   float64  `json:"base,omitempty"`
	Peak   float64  `json:"peak,omitempty"`
	Start  Duration `json:"start,omitempty"`
	Length Duration `json:"length,omitempty"`
	// PerUserRate/Users configure kind "users": an evolving user population
	// times a per-user event rate, the millions-of-users denomination.
	PerUserRate float64        `json:"per_user_rate,omitempty"`
	Users       []UserStepSpec `json:"users,omitempty"`
}

// UserStepSpec is one population segment of a "users" trace.
type UserStepSpec struct {
	At    Duration `json:"at"`
	Users float64  `json:"users"`
}

// Build constructs the concrete trace. Uniform traces draw from the given
// seed stream; other kinds are seed-free.
func (ts TraceSpec) Build(seed *rng.Stream) (ratetrace.Trace, error) {
	switch ts.Kind {
	case "constant":
		if ts.Rate <= 0 {
			return nil, fmt.Errorf("tenant: constant trace needs positive rate")
		}
		return ratetrace.Constant{Rate: ts.Rate}, nil
	case "uniform":
		if ts.Max < ts.Min || ts.Min < 0 {
			return nil, fmt.Errorf("tenant: uniform trace needs 0 <= min <= max")
		}
		dwell := ts.Dwell.D()
		if dwell <= 0 {
			dwell = 30 * time.Second
		}
		return ratetrace.NewUniformBand(ts.Min, ts.Max, dwell, seed), nil
	case "surge":
		if ts.Base < 0 || ts.Peak < ts.Base {
			return nil, fmt.Errorf("tenant: surge trace needs 0 <= base <= peak")
		}
		length := ts.Length.D()
		if length <= 0 {
			length = 5 * time.Minute
		}
		return ratetrace.Surge{
			Base: ts.Base, Peak: ts.Peak,
			Start: sim.Time(ts.Start.D()), Duration: length,
		}, nil
	case "users":
		steps := make([]ratetrace.UserStep, len(ts.Users))
		for i, u := range ts.Users {
			steps[i] = ratetrace.UserStep{From: sim.Time(u.At.D()), Users: u.Users}
		}
		return ratetrace.NewUsers(ts.PerUserRate, steps)
	default:
		return nil, fmt.Errorf("tenant: unknown trace kind %q", ts.Kind)
	}
}

// TenantSpec declares one streaming app in the mix.
type TenantSpec struct {
	// Name identifies the tenant; it becomes the topic name, the metric
	// label value, and the report key. Must be unique in the mix.
	Name string `json:"name"`
	// Workload is a workload.New name (logreg, linreg, wordcount,
	// pageanalyze).
	Workload string `json:"workload"`
	// Controller is any registered controller name (see
	// controllers.Names); "static" pins the initial configuration.
	// Defaults to "nostop".
	Controller string `json:"controller,omitempty"`
	// Priority orders tenants under the priority allocator: higher wins.
	Priority int `json:"priority,omitempty"`
	// Weight scales the fair-share and static allocators; 0 means 1.
	Weight float64 `json:"weight,omitempty"`
	// SLOClass is an informational tier label ("interactive", "batch", …)
	// carried into reports.
	SLOClass string `json:"slo_class,omitempty"`
	// Trace is the tenant's arrival trace.
	Trace TraceSpec `json:"trace"`
	// InitialExecutors is the starting demand; 0 means 4.
	InitialExecutors int `json:"initial_executors,omitempty"`
	// MaxExecutors caps the tenant's demand (its bounds ceiling); 0 means
	// 4× the initial demand.
	MaxExecutors int `json:"max_executors,omitempty"`
	// BatchInterval is the initial batch interval; 0 means 10s.
	BatchInterval Duration `json:"batch_interval,omitempty"`
}

// MixSpec declares a full multi-tenant run: the shared cluster, the
// allocator policy, and the tenant list.
type MixSpec struct {
	// Name labels the mix in reports and fleet cell keys.
	Name string `json:"name"`
	// Nodes is the worker-node count of the shared cluster (a master is
	// added implicitly). 0 means 16.
	Nodes int `json:"nodes,omitempty"`
	// CoresPerNode is the executor capacity per worker. 0 means 4.
	CoresPerNode int `json:"cores_per_node,omitempty"`
	// Partitions is the per-topic partition count. 0 means 8.
	Partitions int `json:"partitions,omitempty"`
	// Allocator is the arbitration policy: "priority", "fair-share", or
	// "static". Defaults to "fair-share".
	Allocator string `json:"allocator,omitempty"`
	// ReconcileEvery is the allocator's reconcile period on the sim clock.
	// 0 means 10s.
	ReconcileEvery Duration `json:"reconcile_every,omitempty"`
	// Horizon is the run length. 0 means 30m.
	Horizon Duration `json:"horizon,omitempty"`
	// Warmup is excluded from steady-state statistics. 0 means Horizon/5.
	Warmup Duration `json:"warmup,omitempty"`
	// Tenants is the app list; at least one, unique names.
	Tenants []TenantSpec `json:"tenants"`
}

// normalized fills defaults without mutating the receiver.
func (m MixSpec) normalized() MixSpec {
	if m.Name == "" {
		m.Name = "mix"
	}
	if m.Nodes == 0 {
		m.Nodes = 16
	}
	if m.CoresPerNode == 0 {
		m.CoresPerNode = 4
	}
	if m.Partitions == 0 {
		m.Partitions = 8
	}
	if m.Allocator == "" {
		m.Allocator = AllocFairShare
	}
	if m.ReconcileEvery == 0 {
		m.ReconcileEvery = Duration(10 * time.Second)
	}
	if m.Horizon == 0 {
		m.Horizon = Duration(30 * time.Minute)
	}
	if m.Warmup == 0 {
		m.Warmup = m.Horizon / 5
	}
	tenants := make([]TenantSpec, len(m.Tenants))
	copy(tenants, m.Tenants)
	for i := range tenants {
		t := &tenants[i]
		if t.Controller == "" {
			t.Controller = controllers.NoStop
		}
		if t.Weight == 0 {
			t.Weight = 1
		}
		if t.InitialExecutors == 0 {
			t.InitialExecutors = 4
		}
		if t.MaxExecutors == 0 {
			t.MaxExecutors = 4 * t.InitialExecutors
		}
		if t.BatchInterval == 0 {
			t.BatchInterval = Duration(10 * time.Second)
		}
	}
	// Tenants sort by name once here; every later loop (allocation,
	// reconcile, reporting) iterates this canonical order, which is what
	// makes the whole subsystem deterministic without further care.
	sort.Slice(tenants, func(i, j int) bool { return tenants[i].Name < tenants[j].Name })
	m.Tenants = tenants
	return m
}

// Validate checks the mix after normalization and returns the normalized
// copy.
func (m MixSpec) Validate() (MixSpec, error) {
	n := m.normalized()
	if len(n.Tenants) == 0 {
		return n, fmt.Errorf("tenant: mix %q has no tenants", n.Name)
	}
	if n.Horizon < 0 {
		return n, fmt.Errorf("tenant: mix %q has negative horizon %v", n.Name, n.Horizon)
	}
	// A warmup that covers the run would leave no batch to measure, and
	// the report would read a perfect delay of 0.
	if n.Warmup < 0 || n.Warmup >= n.Horizon {
		return n, fmt.Errorf("tenant: mix %q has warmup %v outside [0, horizon %v)", n.Name, n.Warmup, n.Horizon)
	}
	if n.ReconcileEvery <= 0 {
		return n, fmt.Errorf("tenant: mix %q has non-positive reconcile_every %v", n.Name, n.ReconcileEvery)
	}
	if n.Partitions < 0 {
		return n, fmt.Errorf("tenant: mix %q has negative partitions %d", n.Name, n.Partitions)
	}
	// Checked before the capacity product, which two negatives would pass.
	if n.Nodes < 1 || n.CoresPerNode < 1 {
		return n, fmt.Errorf("tenant: mix %q needs nodes and cores_per_node >= 1, got %d and %d",
			n.Name, n.Nodes, n.CoresPerNode)
	}
	capacity := n.Nodes * n.CoresPerNode
	if capacity < len(n.Tenants) {
		return n, fmt.Errorf("tenant: mix %q has %d worker cores for %d tenants (need >= 1 core each)",
			n.Name, capacity, len(n.Tenants))
	}
	switch n.Allocator {
	case AllocPriority, AllocFairShare, AllocStatic:
	default:
		return n, fmt.Errorf("tenant: unknown allocator %q", n.Allocator)
	}
	seen := make(map[string]bool, len(n.Tenants))
	for _, t := range n.Tenants {
		if t.Name == "" {
			return n, fmt.Errorf("tenant: mix %q has an unnamed tenant", n.Name)
		}
		if seen[t.Name] {
			return n, fmt.Errorf("tenant: duplicate tenant %q", t.Name)
		}
		seen[t.Name] = true
		// Names is what New accepts; New, which builds the workload, is
		// called only for the error text tenant.Run would print.
		if !slices.Contains(workload.Names(), t.Workload) {
			_, err := workload.New(t.Workload)
			return n, fmt.Errorf("tenant %q: %w", t.Name, err)
		}
		if t.Weight < 0 {
			return n, fmt.Errorf("tenant: %q has negative weight", t.Name)
		}
		if t.MaxExecutors < t.InitialExecutors {
			return n, fmt.Errorf("tenant: %q max_executors %d below initial %d",
				t.Name, t.MaxExecutors, t.InitialExecutors)
		}
		b := engineBounds(t, capacity)
		if t.InitialExecutors < b.MinExecutors {
			return n, fmt.Errorf("tenant: %q initial_executors %d below %d",
				t.Name, t.InitialExecutors, b.MinExecutors)
		}
		if iv := t.BatchInterval.D(); iv < b.MinInterval || iv > b.MaxInterval {
			return n, fmt.Errorf("tenant: %q batch_interval %v outside [%v, %v]",
				t.Name, iv, b.MinInterval, b.MaxInterval)
		}
		info, ok := controllers.Lookup(t.Controller)
		if !ok {
			return n, fmt.Errorf("tenant: %q: %w", t.Name, controllers.UnknownError(t.Controller))
		}
		if info.New != nil && b.MaxExecutors < 2 {
			// A tuner needs room to move: SPSA, for one, cannot scale a
			// one-point executor range.
			return n, fmt.Errorf("tenant: %q controller %q needs max_executors >= 2, got %d",
				t.Name, t.Controller, b.MaxExecutors)
		}
		if _, err := t.Trace.Build(rng.New(1)); err != nil {
			return n, fmt.Errorf("tenant: %q trace: %w", t.Name, err)
		}
	}
	return n, nil
}

// engineBounds is a tenant engine's feasible region: every tenant shares
// the batch-interval range, and its executor ceiling is max_executors
// capped at the cluster's worker cores.
func engineBounds(t TenantSpec, capacity int) engine.Bounds {
	return engine.Bounds{
		MinInterval: time.Second, MaxInterval: 40 * time.Second,
		MinExecutors: 1, MaxExecutors: min(t.MaxExecutors, capacity),
	}
}

// TenantNames returns the spec'd tenant names in canonical (sorted) order —
// the bounded label universe the metric family is restricted to.
func (m MixSpec) TenantNames() []string {
	names := make([]string, 0, len(m.Tenants))
	for _, t := range m.Tenants {
		names = append(names, t.Name)
	}
	sort.Strings(names)
	return names
}

// Synthetic builds a deterministic n-tenant mix over a nodes×coresPerNode
// cluster — the generator behind `cmd/nostop-tenants -tenants N`, the
// 1000-node determinism test, and the tenants benchmark. Tenants cycle
// through the four workloads, three trace shapes (including a
// millions-of-users population trace), the static and nostop controllers,
// and a spread of priorities and weights, so even a large synthetic mix
// exercises every allocator code path.
func Synthetic(n, nodes, coresPerNode int, allocator string, horizon Duration) MixSpec {
	m := MixSpec{
		Name:         fmt.Sprintf("synthetic-%d", n),
		Nodes:        nodes,
		CoresPerNode: coresPerNode,
		Allocator:    allocator,
		Horizon:      horizon,
	}
	workloads := []string{"logreg", "wordcount", "linreg", "pageanalyze"}
	for i := 0; i < n; i++ {
		t := TenantSpec{
			Name:     fmt.Sprintf("t%03d", i),
			Workload: workloads[i%len(workloads)],
			Priority: i % 3,
			Weight:   float64(1 + i%2),
			SLOClass: []string{"interactive", "standard", "batch"}[i%3],
		}
		switch i % 3 {
		case 0:
			t.Trace = TraceSpec{Kind: "constant", Rate: 4000 + 500*float64(i%5)}
		case 1:
			t.Trace = TraceSpec{Kind: "uniform", Min: 2000, Max: 6000,
				Dwell: Duration(30 * time.Second)}
		default:
			// A population trace: i-dependent millions of users at a small
			// per-user event rate, stepping up mid-run.
			base := 1e6 * float64(1+i%4)
			t.Trace = TraceSpec{Kind: "users", PerUserRate: 0.004,
				Users: []UserStepSpec{
					{At: 0, Users: base},
					{At: Duration(10 * time.Minute), Users: 1.5 * base},
				}}
		}
		if i%4 == 3 {
			t.Controller = controllers.Static
		}
		m.Tenants = append(m.Tenants, t)
	}
	return m
}
