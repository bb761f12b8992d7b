package fleet

import (
	"fmt"
	"strings"

	"nostop/internal/baselines"
	"nostop/internal/core"
	"nostop/internal/engine"
	"nostop/internal/gptuner"
	"nostop/internal/metrics"
	"nostop/internal/rltuner"
	"nostop/internal/rng"
	"nostop/internal/tracing"
)

// Controller is a tuner a registry factory built on an engine. Attach
// registers it with that engine and applies its first decision.
type Controller interface {
	Attach() error
}

// Build is what a controller factory draws on besides the engine.
type Build struct {
	// Seed is the stream a factory splits its own stream from:
	// "controller" for nostop, "bo", "gp" and "rl" for the others.
	Seed *rng.Stream
	// Space, when non-nil, is the widened configuration space the run
	// tunes over.
	Space *core.ConfigSpace
	// Metrics and Tracer are the run's sinks; nil disables them.
	Metrics *metrics.Registry
	Tracer  *tracing.Tracer
	// NoStop, when non-nil, edits the nostop controller's options before
	// construction (the ablations' knobs).
	NoStop func(*core.Options)
}

// ControllerInfo is one entry of the controller registry — the single
// source of truth for which tuners a run can attach and how each is built.
// The fleet spec validator, the scenario spec validator, Assemble, the
// CLIs, and the cross-controller conformance suite all consult this table,
// so adding a controller here is the one required registration step (see
// docs/CONTROLLERS.md for the full recipe).
type ControllerInfo struct {
	// Name is the spec string selecting the controller.
	Name string
	// Summary is the one-line catalog description surfaced in docs and CLI
	// help.
	Summary string
	// ReconfiguresDuringFaults declares that the controller may change the
	// configuration while a fault window is active. The conformance suite
	// exempts such controllers from the no-reconfiguration-during-faults
	// contract; every other controller is held to it.
	ReconfiguresDuringFaults bool
	// New builds the controller on a started engine; Assemble attaches
	// it. Nil means the run holds its initial configuration (static).
	New func(eng *engine.Engine, b Build) (Controller, error)
}

// controllerRegistry lists every controller in its canonical order.
// back-pressure acts on every batch (its PID deliberately fights faults)
// and the BayesOpt baseline predates fault admission, so both opt into
// reconfiguring during fault windows; the rest are failure-aware.
var controllerRegistry = []ControllerInfo{
	{Name: ControllerStatic, Summary: "holds the initial configuration for the whole run"},
	{Name: ControllerNoStop, Summary: "the paper's failure-aware SPSA controller (§5)", New: newNoStop},
	{Name: ControllerBackPressure, Summary: "Spark's PID back-pressure on the ingest cap",
		ReconfiguresDuringFaults: true, New: newBackPressure},
	{Name: ControllerBayesOpt, Summary: "Bayesian-optimization baseline over the two paper parameters",
		ReconfiguresDuringFaults: true, New: newBayesOpt},
	{Name: ControllerGP, Summary: "uncertainty-aware GP tuner over the widened config space", New: newGP},
	{Name: ControllerRL, Summary: "tabular Q-learning tuner over the widened config space", New: newRL},
}

func newNoStop(eng *engine.Engine, b Build) (Controller, error) {
	opts := core.Options{Seed: b.Seed.Split("controller"), Metrics: b.Metrics, Tracer: b.Tracer}
	if b.Space != nil {
		// SPSA tunes the block axis too when the space declares it.
		_, opts.TuneBlockInterval = b.Space.Axis(core.ParamBlockInterval)
	}
	if b.NoStop != nil {
		b.NoStop(&opts)
	}
	return built(core.New(eng, opts))
}

func newBackPressure(eng *engine.Engine, _ Build) (Controller, error) {
	return built(baselines.NewBackPressure(eng, baselines.BPOptions{}))
}

func newBayesOpt(eng *engine.Engine, b Build) (Controller, error) {
	return built(baselines.NewBayesOpt(eng, baselines.BOOptions{Seed: b.Seed.Split("bo")}))
}

func newGP(eng *engine.Engine, b Build) (Controller, error) {
	opts := gptuner.Options{Seed: b.Seed.Split("gp")}
	if b.Space != nil {
		opts.Space = *b.Space
	}
	return built(gptuner.New(eng, opts))
}

func newRL(eng *engine.Engine, b Build) (Controller, error) {
	opts := rltuner.Options{Seed: b.Seed.Split("rl")}
	if b.Space != nil {
		opts.Space = *b.Space
	}
	return built(rltuner.New(eng, opts))
}

// built widens a constructor's concrete result to a Controller, keeping a
// failed construction's controller nil rather than a typed nil.
func built[C Controller](c C, err error) (Controller, error) {
	if err != nil {
		return nil, err
	}
	return c, nil
}

// Controllers returns the registry entries in canonical order.
func Controllers() []ControllerInfo {
	return append([]ControllerInfo(nil), controllerRegistry...)
}

// ControllerNames returns the registered controller names in canonical
// order.
func ControllerNames() []string {
	names := make([]string, len(controllerRegistry))
	for i, c := range controllerRegistry {
		names[i] = c.Name
	}
	return names
}

// KnownController reports whether name is a registered controller.
func KnownController(name string) bool {
	_, ok := LookupController(name)
	return ok
}

// LookupController returns the registry entry for name.
func LookupController(name string) (ControllerInfo, bool) {
	for _, c := range controllerRegistry {
		if c.Name == name {
			return c, true
		}
	}
	return ControllerInfo{}, false
}

// UnknownControllerError is the shared rejection for an unregistered
// controller name. The fleet spec validator, the scenario spec validator
// and Assemble all return exactly this error, so a typo fails with
// identical text whichever entry point sees it first.
func UnknownControllerError(name string) error {
	return fmt.Errorf("fleet: unknown controller %q (want %s)", name, strings.Join(ControllerNames(), ", "))
}
