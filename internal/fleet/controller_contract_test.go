package fleet

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"nostop/internal/controllers"
	"nostop/internal/core"
	"nostop/internal/engine"
	"nostop/internal/faults"
	"nostop/internal/sim"
	"nostop/internal/tenant"
)

// contractPlan is the inline chaos plan every conformance run shares: a
// straggler, an ingest spike, and a task-failure window, all inside an 8m
// horizon so every controller has clean batches before, between, and after
// the windows.
func contractPlan() faults.Plan {
	return faults.Plan{
		{Kind: faults.Straggler, At: sim.Time(2 * time.Minute), Duration: 40 * time.Second, NodeID: 4, Factor: 3},
		{Kind: faults.IngestSpike, At: sim.Time(3 * time.Minute), Duration: 30 * time.Second, Factor: 1.5},
		{Kind: faults.TaskFailures, At: sim.Time(4 * time.Minute), Duration: 30 * time.Second, Prob: 0.4},
	}
}

// contractSpace is the widened action space the conformance sweep tunes
// over — the logreg band's peak rate, matching experiments.ZooSpace.
func contractSpace() core.ConfigSpace {
	return core.WidenedSpace(engine.DefaultBounds(), 13000)
}

// contractJob builds one conformance job for a controller.
func contractJob(ctl string, seed uint64, space *core.ConfigSpace) Job {
	return Job{
		Workload:   "logreg",
		Controller: ctl,
		Seed:       seed,
		Horizon:    Duration(8 * time.Minute),
		Warmup:     0.5,
		Trace:      TraceSpec{Kind: "band", Period: Duration(5 * time.Second)},
		Plan:       NamedPlan{Name: "chaos", Faults: contractPlan()},
		Space:      space,
	}
}

// TestControllerContractManifestInvariance runs every registered controller
// over the widened space under the chaos plan at parallelism 1 and 8 and
// requires byte-identical manifests and aggregates — the cross-controller
// determinism contract.
func TestControllerContractManifestInvariance(t *testing.T) {
	space := contractSpace()
	spec := Spec{
		Name:        "controller-contract",
		Seeds:       []uint64{1, 2},
		Workloads:   []string{"logreg"},
		Controllers: controllers.Names(),
		Horizon:     Duration(8 * time.Minute),
		Warmup:      0.5,
		Plans:       []NamedPlan{{Name: "chaos", Faults: contractPlan()}},
		Space:       &space,
	}
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	serial, err := Run(spec, Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Run(spec, Options{Parallelism: 8})
	if err != nil {
		t.Fatal(err)
	}
	m1, a1 := encode(t, serial)
	m8, a8 := encode(t, parallel)
	if !bytes.Equal(m1, m8) {
		t.Error("manifest differs between parallelism 1 and 8")
	}
	if !bytes.Equal(a1, a8) {
		t.Error("aggregates differ between parallelism 1 and 8")
	}
	// Every registered controller actually ran and produced batches.
	batches := map[string]int{}
	for _, rec := range serial.Manifest.Jobs {
		batches[rec.Job.Controller] += rec.Summary.Batches
	}
	for _, name := range controllers.Names() {
		if batches[name] == 0 {
			t.Errorf("controller %s produced no batches", name)
		}
	}
}

// TestControllerContractBounds attaches a batch listener to one observed
// run per controller and requires every batch's configuration to stay
// inside the space's engine bounds. For the space-aware tuners the
// engine-side knobs must also land inside their declared axes at run end.
func TestControllerContractBounds(t *testing.T) {
	space := contractSpace()
	bounds := space.EngineBounds()
	for _, info := range controllers.All() {
		info := info
		t.Run(info.Name, func(t *testing.T) {
			violations := 0
			var bad engine.Config
			sum, det, err := ExecuteObserved(contractJob(info.Name, 1, &space), Observe{
				Attach: func(eng *engine.Engine) error {
					eng.AddListener(engine.ListenerFunc(func(bs engine.BatchStats) {
						if !bounds.Contains(bs.Config) {
							violations++
							bad = bs.Config
						}
					}))
					return nil
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			if violations > 0 {
				t.Errorf("%d batches outside engine bounds, e.g. %+v", violations, bad)
			}
			if sum.Batches == 0 {
				t.Fatal("run produced no batches")
			}
			if info.Name != ControllerGP && info.Name != ControllerRL {
				return
			}
			// Space-aware tuners drive the extra knobs through space.Apply,
			// so the final engine state must sit inside the declared axes.
			eng := det.Engine
			if a, ok := space.Axis(core.ParamIngestCap); ok {
				if cap := eng.IngestCap(); cap < a.Min-1e-9 || cap > a.Max+1e-9 {
					t.Errorf("ingest cap %v outside axis [%v, %v]", cap, a.Min, a.Max)
				}
			}
			if a, ok := space.Axis(core.ParamRetryBudget); ok {
				if r := eng.TaskMaxFailures(); float64(r) < a.Min-1e-9 || float64(r) > a.Max+1e-9 {
					t.Errorf("retry budget %d outside axis [%v, %v]", r, a.Min, a.Max)
				}
			}
			if a, ok := space.Axis(core.ParamSpecThreshold); ok {
				if m := eng.SpeculativeMultiplier(); m < a.Min-1e-9 || m > a.Max+1e-9 {
					t.Errorf("speculation threshold %v outside axis [%v, %v]", m, a.Min, a.Max)
				}
			}
		})
	}
}

// TestControllerContractNoReconfigDuringFaults traces one run per
// failure-aware controller and requires that no reconfigure instant lands
// strictly inside a fault window. Controllers whose registry entry opts in
// (ReconfiguresDuringFaults) are exempt by design.
func TestControllerContractNoReconfigDuringFaults(t *testing.T) {
	space := contractSpace()
	plan := contractPlan()
	for _, info := range controllers.All() {
		info := info
		if info.ReconfiguresDuringFaults {
			continue
		}
		t.Run(info.Name, func(t *testing.T) {
			_, det, err := ExecuteObserved(contractJob(info.Name, 1, &space), Observe{Trace: true})
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := det.Tracer.WriteJSON(&buf); err != nil {
				t.Fatal(err)
			}
			var doc struct {
				TraceEvents []struct {
					Name string `json:"name"`
					Ph   string `json:"ph"`
					Ts   int64  `json:"ts"` // microseconds of virtual time
				} `json:"traceEvents"`
			}
			if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
				t.Fatal(err)
			}
			reconfigs := 0
			for _, ev := range doc.TraceEvents {
				if ev.Name != "reconfigure" || ev.Ph != "i" {
					continue
				}
				reconfigs++
				at := sim.Time(ev.Ts * int64(time.Microsecond))
				for _, f := range plan {
					if at > f.At && at < f.End() {
						t.Errorf("reconfigure at %v inside %v fault window [%v, %v]",
							time.Duration(at), f.Kind, time.Duration(f.At), time.Duration(f.End()))
					}
				}
			}
			if info.Name != ControllerStatic && reconfigs == 0 {
				t.Errorf("tuned controller %s never reconfigured", info.Name)
			}
		})
	}
}

// TestControllerContractTenantMix runs every registered controller as one
// tenant of a contended mix — tenant i runs controllers.Names()[i], so a
// newly registered controller is covered with no test edit. The mix must
// validate, run, and reproduce its report byte for byte under the same
// seed; at the horizon no tenant's engine may be configured (live or
// pending) beyond its grant, and every tuner that reconfigures must have
// done so.
func TestControllerContractTenantMix(t *testing.T) {
	names := controllers.Names()
	mix := tenant.Synthetic(len(names), 6, 2, tenant.AllocFairShare, tenant.Duration(20*time.Minute))
	for i := range mix.Tenants {
		mix.Tenants[i].Controller = names[i]
	}
	if _, err := mix.Validate(); err != nil {
		t.Fatal(err)
	}
	run := func() (*tenant.Report, *tenant.Detail, []byte) {
		rep, det, err := tenant.RunDetailed(mix, 1, tenant.Observe{})
		if err != nil {
			t.Fatal(err)
		}
		out, err := rep.Encode()
		if err != nil {
			t.Fatal(err)
		}
		return rep, det, out
	}
	rep, det, first := run()
	if _, _, again := run(); !bytes.Equal(first, again) {
		t.Error("same seed, different tenant-mix report")
	}
	if len(rep.Tenants) != len(names) {
		t.Fatalf("report has %d tenants, want %d", len(rep.Tenants), len(names))
	}
	for _, tr := range rep.Tenants {
		// A grant shrunk at the horizon reaches the engine at its next
		// batch boundary, so the check reads the configuration the engine
		// is set to run, not the one it ran last.
		if got := det.Engines[tr.Name].TargetConfig().Executors; got > tr.Grant {
			t.Errorf("tenant %s (%s): %d executors configured against a grant of %d",
				tr.Name, tr.Controller, got, tr.Grant)
		}
		// Back pressure acts on the ingest cap alone, never the
		// configuration; every other tuner must have reconfigured.
		info, _ := controllers.Lookup(tr.Controller)
		if info.New != nil && info.Name != controllers.BackPressure && tr.Reconfigs == 0 {
			t.Errorf("tenant %s (%s) never reconfigured", tr.Name, tr.Controller)
		}
	}
}
