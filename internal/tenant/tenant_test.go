package tenant

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"nostop/internal/controllers"
)

// smallMix is a fast two-tenant mix with contended capacity: steady demands
// 6 and bursty 6 on 8 cores, so the allocator's policy visibly decides who
// gets what.
func smallMix(allocator string) MixSpec {
	return MixSpec{
		Name:         "small",
		Nodes:        4,
		CoresPerNode: 2,
		Partitions:   8,
		Allocator:    allocator,
		Horizon:      Duration(6 * time.Minute),
		Tenants: []TenantSpec{
			{
				Name: "steady", Workload: "wordcount", Controller: "static",
				Priority: 2, SLOClass: "interactive",
				Trace:            TraceSpec{Kind: "constant", Rate: 3000},
				InitialExecutors: 6, BatchInterval: Duration(8 * time.Second),
			},
			{
				Name: "bursty", Workload: "pageanalyze", Controller: "static",
				Priority: 0, SLOClass: "batch",
				Trace:            TraceSpec{Kind: "surge", Base: 1000, Peak: 8000, Start: Duration(time.Minute), Length: Duration(3 * time.Minute)},
				InitialExecutors: 6, BatchInterval: Duration(8 * time.Second),
			},
		},
	}
}

// The headline determinism contract at the target scale: a 1000-node,
// 32-tenant, 100-partition run encodes to byte-identical reports under the
// same seed.
func TestSameSeedByteIdenticalAtScale(t *testing.T) {
	mix := Synthetic(32, 1000, 4, AllocFairShare, Duration(15*time.Minute))
	mix.Partitions = 100
	rep1, err := Run(mix, 7, Observe{})
	if err != nil {
		t.Fatal(err)
	}
	rep2, err := Run(mix, 7, Observe{})
	if err != nil {
		t.Fatal(err)
	}
	a, err := rep1.Encode()
	if err != nil {
		t.Fatal(err)
	}
	b, err := rep2.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("same-seed 1000-node/32-tenant reports differ")
	}
	if got := len(rep1.Tenants); got != 32 {
		t.Fatalf("report has %d tenants, want 32", got)
	}
	if rep1.Cluster.TotalBatches == 0 || rep1.Cluster.TotalRecords == 0 {
		t.Fatalf("degenerate run: %+v", rep1.Cluster)
	}
	if rep1.Alloc.Rounds == 0 {
		t.Fatal("allocator never reconciled")
	}
}

// Different seeds must actually change the run (the determinism test above
// would pass vacuously if the seed were ignored).
func TestSeedChangesReport(t *testing.T) {
	mix := smallMix(AllocFairShare)
	rep1, err := Run(mix, 1, Observe{})
	if err != nil {
		t.Fatal(err)
	}
	rep2, err := Run(mix, 2, Observe{})
	if err != nil {
		t.Fatal(err)
	}
	a, _ := rep1.Encode()
	b, _ := rep2.Encode()
	if bytes.Equal(a, b) {
		t.Fatal("different seeds produced identical reports")
	}
}

// The allocator must demonstrably change outcomes: under priority the
// high-priority steady tenant keeps its full demand; under fair-share the
// equal-weight split caps it below demand while the bursty tenant gains.
func TestAllocatorPolicyChangesGrants(t *testing.T) {
	byName := func(rep *Report, name string) TenantReport {
		for _, tr := range rep.Tenants {
			if tr.Name == name {
				return tr
			}
		}
		t.Fatalf("tenant %q missing from report", name)
		return TenantReport{}
	}
	prio, err := Run(smallMix(AllocPriority), 3, Observe{})
	if err != nil {
		t.Fatal(err)
	}
	fair, err := Run(smallMix(AllocFairShare), 3, Observe{})
	if err != nil {
		t.Fatal(err)
	}
	if g := byName(prio, "steady").Grant; g != 6 {
		t.Errorf("priority grants steady %d executors, want its full demand 6", g)
	}
	if g := byName(prio, "bursty").Grant; g != 2 {
		t.Errorf("priority grants bursty %d executors, want the 2 leftover", g)
	}
	if g := byName(fair, "steady").Grant; g != 4 {
		t.Errorf("fair-share grants steady %d executors, want the even split 4", g)
	}
	if g := byName(fair, "bursty").Grant; g != 4 {
		t.Errorf("fair-share grants bursty %d executors, want the even split 4", g)
	}
}

// Reports list tenants in canonical (name-sorted) order regardless of spec
// order — the order every deterministic loop in the subsystem shares.
func TestReportCanonicalTenantOrder(t *testing.T) {
	mix := smallMix(AllocFairShare)
	mix.Tenants[0], mix.Tenants[1] = mix.Tenants[1], mix.Tenants[0]
	rep, err := Run(mix, 1, Observe{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(rep.Tenants); i++ {
		if rep.Tenants[i-1].Name >= rep.Tenants[i].Name {
			t.Fatalf("tenants out of canonical order: %s before %s", rep.Tenants[i-1].Name, rep.Tenants[i].Name)
		}
	}
}

func TestMixValidateErrors(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*MixSpec)
		want string
	}{
		{"no tenants", func(m *MixSpec) { m.Tenants = nil }, "no tenants"},
		{"capacity", func(m *MixSpec) { m.Nodes, m.CoresPerNode = 1, 1 }, "worker cores"},
		{"allocator", func(m *MixSpec) { m.Allocator = "lottery" }, "unknown allocator"},
		{"dup name", func(m *MixSpec) { m.Tenants[1].Name = m.Tenants[0].Name }, "duplicate"},
		{"max below initial", func(m *MixSpec) { m.Tenants[0].MaxExecutors = 2; m.Tenants[0].InitialExecutors = 6 }, "below initial"},
		{"controller", func(m *MixSpec) { m.Tenants[0].Controller = "pid" }, controllers.UnknownError("pid").Error()},
		{"initial below one", func(m *MixSpec) { m.Tenants[0].InitialExecutors = -2; m.Tenants[0].MaxExecutors = 5 }, "initial_executors -2 below 1"},
		{"interval below bounds", func(m *MixSpec) { m.Tenants[0].BatchInterval = Duration(time.Millisecond) }, "batch_interval 1ms outside [1s, 40s]"},
		{"negative interval", func(m *MixSpec) { m.Tenants[0].BatchInterval = Duration(-5 * time.Second) }, "batch_interval -5s outside [1s, 40s]"},
		{"tuned single executor", func(m *MixSpec) {
			m.Tenants[0].Controller = controllers.NoStop
			m.Tenants[0].InitialExecutors, m.Tenants[0].MaxExecutors = 1, 1
		}, `controller "nostop" needs max_executors >= 2, got 1`},
		{"trace", func(m *MixSpec) { m.Tenants[0].Trace = TraceSpec{Kind: "constant"} }, "positive rate"},
		{"horizon", func(m *MixSpec) { m.Horizon = Duration(-time.Minute) }, "negative horizon"},
		{"reconcile", func(m *MixSpec) { m.ReconcileEvery = Duration(-5 * time.Second) }, "non-positive reconcile_every -5s"},
		{"partitions", func(m *MixSpec) { m.Partitions = -3 }, "negative partitions -3"},
		{"negative nodes and cores", func(m *MixSpec) { m.Nodes, m.CoresPerNode = -2, -2 }, "nodes and cores_per_node >= 1, got -2 and -2"},
		{"negative nodes", func(m *MixSpec) { m.Nodes = -1 }, "nodes and cores_per_node >= 1, got -1"},
		{"workload", func(m *MixSpec) { m.Tenants[0].Workload = "bogus" }, `tenant "steady": workload: unknown workload "bogus"`},
		{"warmup past horizon", func(m *MixSpec) {
			m.Horizon, m.Warmup = Duration(2*time.Minute), Duration(10*time.Minute)
		}, "warmup 10m0s outside [0, horizon 2m0s)"},
		{"warmup at horizon", func(m *MixSpec) { m.Horizon, m.Warmup = Duration(time.Minute), Duration(time.Minute) }, "warmup 1m0s outside"},
		{"negative warmup", func(m *MixSpec) { m.Warmup = Duration(-5 * time.Minute) }, "warmup -5m0s outside"},
	}
	for _, tc := range cases {
		mix := smallMix(AllocFairShare)
		tc.mut(&mix)
		if _, err := mix.Validate(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Validate() = %v, want error containing %q", tc.name, err, tc.want)
		}
	}
	// A static tenant never moves, so one executor is enough for it.
	mix := smallMix(AllocFairShare)
	mix.Tenants[0].InitialExecutors, mix.Tenants[0].MaxExecutors = 1, 1
	if _, err := mix.Validate(); err != nil {
		t.Errorf("static single-executor tenant rejected: %v", err)
	}
}

// Synthetic mixes must validate at every size used by the CLI, tests, and
// the benchmark.
func TestSyntheticValidates(t *testing.T) {
	for _, n := range []int{1, 4, 8, 32} {
		mix := Synthetic(n, 1000, 4, AllocPriority, Duration(10*time.Minute))
		if _, err := mix.Validate(); err != nil {
			t.Errorf("Synthetic(%d): %v", n, err)
		}
	}
}
