// Configuration space: the versioned, widened action space every controller
// in the zoo tunes (docs/CONTROLLERS.md).
//
// The paper optimizes two parameters — batch interval and executor count —
// and names multi-parameter tuning as future work (§7). Following "Towards
// General and Efficient Online Tuning for Spark", this reproduction widens
// the space to six axes: the two paper parameters plus the receiver block
// interval, the ingest cap, the per-batch retry budget, and the speculation
// threshold. A ConfigSpace declares which axes are tunable and over what
// ranges; controllers that understand fewer axes simply leave the others at
// their engine defaults (the zero sentinels), so a two-parameter controller
// and a six-parameter controller can be compared over the same declared
// space.
//
// Determinism contract: every operation here is a pure function of its
// inputs. Clamp is idempotent (Clamp∘Clamp == Clamp), Encode∘Decode is a
// fixed point, and the discretized lattice is derived arithmetically from
// the axis declarations — properties pinned by FuzzConfigSpace.
package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"time"

	"nostop/internal/engine"
)

// SpaceVersion is the ConfigSpace encoding version this package writes and
// the only one it accepts. Bump it when axis semantics change incompatibly.
const SpaceVersion = "v1"

// Parameter names of the widened configuration space. Duration-valued axes
// (batch_interval, block_interval) are declared in seconds; count-valued
// axes (executors, retry_budget) must have integral bounds.
const (
	// ParamBatchInterval is the batch interval in seconds (the paper's
	// first tuned parameter).
	ParamBatchInterval = "batch_interval"
	// ParamExecutors is the executor count (the paper's second parameter).
	ParamExecutors = "executors"
	// ParamBlockInterval is the receiver block interval in seconds; it
	// controls tasks-per-batch (§7 future work, PR-2's third dimension).
	ParamBlockInterval = "block_interval"
	// ParamIngestCap is the accepted input rate limit in records/second —
	// the back-pressure actuator exposed as a tunable axis.
	ParamIngestCap = "ingest_cap"
	// ParamRetryBudget is the per-batch attempt budget under transient
	// task failures (Spark's spark.task.maxFailures).
	ParamRetryBudget = "retry_budget"
	// ParamSpecThreshold is the speculative-execution slowdown multiplier
	// (Spark's spark.speculation.multiplier).
	ParamSpecThreshold = "speculation_threshold"
)

// axis domain kinds: durations clamp in integer nanoseconds, counts in
// integers, scalars in float64 — each domain's clamp is exactly idempotent.
const (
	kindDuration = iota
	kindCount
	kindScalar
)

// paramKind maps a parameter name to its value domain.
func paramKind(name string) (int, bool) {
	switch name {
	case ParamBatchInterval, ParamBlockInterval:
		return kindDuration, true
	case ParamExecutors, ParamRetryBudget:
		return kindCount, true
	case ParamIngestCap, ParamSpecThreshold:
		return kindScalar, true
	}
	return 0, false
}

// AxisSpec declares one tunable parameter: its range and the lattice
// resolution discretizing controllers (RL, GP) work at.
type AxisSpec struct {
	// Param names the parameter (one of the Param* constants).
	Param string `json:"param"`
	// Min and Max bound the axis, inclusive, in the parameter's unit
	// (seconds for durations).
	Min float64 `json:"min"`
	Max float64 `json:"max"`
	// Steps is the number of lattice intervals: the discretized axis has
	// Steps+1 evenly spaced values. 0 means 8; the cap is 64.
	Steps int `json:"steps,omitempty"`
}

// steps resolves the default lattice resolution.
func (a AxisSpec) steps() int {
	if a.Steps == 0 {
		return 8
	}
	return a.Steps
}

// Values returns the axis's discretized lattice: steps+1 evenly spaced
// values from Min to Max. Count axes round every value and drop the
// duplicates that rounding produces, so the lattice never contains two
// coordinates that map to the same configuration.
func (a AxisSpec) Values() []float64 {
	n := a.steps()
	kind, _ := paramKind(a.Param)
	vals := make([]float64, 0, n+1)
	span := a.Max - a.Min
	for i := 0; i <= n; i++ {
		v := a.Min + span*float64(i)/float64(n)
		if kind == kindCount {
			v = math.Round(v)
		}
		if len(vals) > 0 && !(v > vals[len(vals)-1]) {
			continue // rounding collapsed this step into the previous one
		}
		vals = append(vals, v)
	}
	return vals
}

// ConfigSpace is a versioned declaration of the tunable configuration
// space. The zero value is invalid; build one with WidenedSpace or decode
// one from spec JSON with DecodeSpace.
type ConfigSpace struct {
	Version string     `json:"version"`
	Axes    []AxisSpec `json:"axes"`
}

// WidenedSpace returns the canonical six-axis v1 space: batch interval and
// executors from the engine bounds, the block interval (from the bounds
// when tunable there, [0.1s, 1s] otherwise), an ingest cap bracketing the
// workload's nominal peak arrival rate (omitted when nominalRate <= 0), the
// retry budget, and the speculation threshold. A zero bounds value resolves
// to engine.DefaultBounds.
func WidenedSpace(b engine.Bounds, nominalRate float64) ConfigSpace {
	if b == (engine.Bounds{}) {
		b = engine.DefaultBounds()
	}
	minBlock, maxBlock := b.MinBlock, b.MaxBlock
	if maxBlock <= 0 {
		minBlock, maxBlock = 100*time.Millisecond, time.Second
	}
	axes := []AxisSpec{
		{Param: ParamBatchInterval, Min: b.MinInterval.Seconds(), Max: b.MaxInterval.Seconds(), Steps: 13},
		{Param: ParamExecutors, Min: float64(b.MinExecutors), Max: float64(b.MaxExecutors), Steps: b.MaxExecutors - b.MinExecutors},
		{Param: ParamBlockInterval, Min: minBlock.Seconds(), Max: maxBlock.Seconds(), Steps: 9},
	}
	if nominalRate > 0 {
		// The top of the range sits above the arrival band, so the highest
		// lattice value is an effectively-uncapped setting a tuner can
		// discover; the bottom sheds aggressively.
		axes = append(axes, AxisSpec{Param: ParamIngestCap, Min: 0.8 * nominalRate, Max: 2 * nominalRate, Steps: 6})
	}
	axes = append(axes,
		AxisSpec{Param: ParamRetryBudget, Min: 2, Max: 8, Steps: 6},
		AxisSpec{Param: ParamSpecThreshold, Min: 1.2, Max: 3, Steps: 6},
	)
	return ConfigSpace{Version: SpaceVersion, Axes: axes}
}

// Validate checks the space declaration: the version, that every axis names
// a known parameter exactly once with finite ordered bounds and a sane
// lattice resolution, that duration axes stay within [1ms, 1h] (keeping
// nanosecond arithmetic exact), that count axes have integral bounds at
// least 1, and that the two mandatory paper axes are present.
func (s ConfigSpace) Validate() error {
	if s.Version != SpaceVersion {
		return fmt.Errorf("core: config space version %q (want %q)", s.Version, SpaceVersion)
	}
	if len(s.Axes) == 0 {
		return fmt.Errorf("core: config space has no axes")
	}
	seen := make(map[string]bool, len(s.Axes))
	for i, a := range s.Axes {
		kind, ok := paramKind(a.Param)
		if !ok {
			return fmt.Errorf("core: axis %d: unknown param %q (want %s)", i, a.Param,
				strings.Join([]string{ParamBatchInterval, ParamExecutors, ParamBlockInterval,
					ParamIngestCap, ParamRetryBudget, ParamSpecThreshold}, ", "))
		}
		if seen[a.Param] {
			return fmt.Errorf("core: axis %d: duplicate param %q", i, a.Param)
		}
		seen[a.Param] = true
		if math.IsNaN(a.Min) || math.IsInf(a.Min, 0) || math.IsNaN(a.Max) || math.IsInf(a.Max, 0) {
			return fmt.Errorf("core: axis %s: non-finite bounds [%v, %v]", a.Param, a.Min, a.Max)
		}
		if a.Min > a.Max {
			return fmt.Errorf("core: axis %s: min %v above max %v", a.Param, a.Min, a.Max)
		}
		if a.Steps < 0 || a.Steps > 64 {
			return fmt.Errorf("core: axis %s: steps %d outside [0, 64]", a.Param, a.Steps)
		}
		switch kind {
		case kindDuration:
			if a.Min < 1e-3 || a.Max > 3600 {
				return fmt.Errorf("core: axis %s: duration range [%v, %v]s outside [0.001, 3600]", a.Param, a.Min, a.Max)
			}
		case kindCount:
			if a.Min < 1 {
				return fmt.Errorf("core: axis %s: count min %v below 1", a.Param, a.Min)
			}
			if a.Max > 1e6 {
				return fmt.Errorf("core: axis %s: count max %v above 1e6", a.Param, a.Max)
			}
			if math.Abs(a.Min-math.Round(a.Min)) > 1e-9 || math.Abs(a.Max-math.Round(a.Max)) > 1e-9 {
				return fmt.Errorf("core: axis %s: count bounds [%v, %v] must be integral", a.Param, a.Min, a.Max)
			}
		case kindScalar:
			if a.Min < 0 {
				return fmt.Errorf("core: axis %s: min %v below 0", a.Param, a.Min)
			}
			if a.Max > 1e12 {
				return fmt.Errorf("core: axis %s: max %v above 1e12", a.Param, a.Max)
			}
		}
	}
	if !seen[ParamBatchInterval] || !seen[ParamExecutors] {
		return fmt.Errorf("core: config space must declare %s and %s", ParamBatchInterval, ParamExecutors)
	}
	return nil
}

// DecodeSpace reads a ConfigSpace from strict JSON — unknown fields and
// trailing documents are errors, matching the scenario spec decoder — and
// validates it.
func DecodeSpace(data []byte) (ConfigSpace, error) {
	var s ConfigSpace
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return ConfigSpace{}, fmt.Errorf("core: decoding config space: %v", err)
	}
	if dec.More() {
		return ConfigSpace{}, fmt.Errorf("core: trailing data after config space")
	}
	if err := s.Validate(); err != nil {
		return ConfigSpace{}, err
	}
	return s, nil
}

// Encode renders the space as canonical JSON. Decode(Encode(s)) == s for
// every valid space (the fixed point FuzzConfigSpace pins).
func (s ConfigSpace) Encode() ([]byte, error) {
	return json.Marshal(s)
}

// Axis returns the declaration of param, if the space has it.
func (s ConfigSpace) Axis(param string) (AxisSpec, bool) {
	for _, a := range s.Axes {
		if a.Param == param {
			return a, true
		}
	}
	return AxisSpec{}, false
}

// FullConfig is one point of the widened space. Zero values of the optional
// fields are "engine default" sentinels: BlockInterval 0 keeps the engine's
// block interval, IngestCap 0 leaves ingest uncapped, RetryBudget and
// SpecThreshold 0 keep the engine options' values.
type FullConfig struct {
	BatchInterval time.Duration `json:"batch_interval"`
	Executors     int           `json:"executors"`
	BlockInterval time.Duration `json:"block_interval,omitempty"`
	IngestCap     float64       `json:"ingest_cap,omitempty"`
	RetryBudget   int           `json:"retry_budget,omitempty"`
	SpecThreshold float64       `json:"speculation_threshold,omitempty"`
}

// Engine returns the structural half of the point — the engine.Config that
// goes through Reconfigure.
func (c FullConfig) Engine() engine.Config {
	return engine.Config{BatchInterval: c.BatchInterval, Executors: c.Executors, BlockInterval: c.BlockInterval}
}

// value reads the point's coordinate on param, in axis units.
func (c FullConfig) value(param string) float64 {
	switch param {
	case ParamBatchInterval:
		return c.BatchInterval.Seconds()
	case ParamExecutors:
		return float64(c.Executors)
	case ParamBlockInterval:
		return c.BlockInterval.Seconds()
	case ParamIngestCap:
		return c.IngestCap
	case ParamRetryBudget:
		return float64(c.RetryBudget)
	case ParamSpecThreshold:
		return c.SpecThreshold
	}
	return 0
}

// setValue writes the point's coordinate on param, converting axis units
// back to the field's domain (nanoseconds for durations, ints for counts).
func setValue(c *FullConfig, param string, v float64) {
	switch param {
	case ParamBatchInterval:
		c.BatchInterval = secondsToDuration(v)
	case ParamExecutors:
		c.Executors = int(math.Round(v))
	case ParamBlockInterval:
		c.BlockInterval = secondsToDuration(v)
	case ParamIngestCap:
		c.IngestCap = v
	case ParamRetryBudget:
		c.RetryBudget = int(math.Round(v))
	case ParamSpecThreshold:
		c.SpecThreshold = v
	}
}

// secondsToDuration converts axis seconds to a Duration by rounding to
// whole nanoseconds. Validate bounds duration axes to [1ms, 1h], where this
// conversion is exact enough that clamping stays idempotent.
func secondsToDuration(v float64) time.Duration {
	return time.Duration(math.Round(v * float64(time.Second)))
}

// Clamp restricts c to the space: every declared axis clamps its field into
// [Min, Max] (durations in whole nanoseconds, counts in integers), and the
// fields of undeclared optional axes reset to their engine-default
// sentinels. Clamp is idempotent: Clamp(Clamp(c)) == Clamp(c).
func (s ConfigSpace) Clamp(c FullConfig) FullConfig {
	for _, param := range []string{ParamBatchInterval, ParamExecutors, ParamBlockInterval,
		ParamIngestCap, ParamRetryBudget, ParamSpecThreshold} {
		a, ok := s.Axis(param)
		if !ok {
			if param != ParamBatchInterval && param != ParamExecutors {
				setValue(&c, param, 0)
				switch param { // zero the sentinel exactly, skipping unit conversion
				case ParamBlockInterval:
					c.BlockInterval = 0
				case ParamIngestCap:
					c.IngestCap = 0
				case ParamRetryBudget:
					c.RetryBudget = 0
				case ParamSpecThreshold:
					c.SpecThreshold = 0
				}
			}
			continue
		}
		kind, _ := paramKind(param)
		switch kind {
		case kindDuration:
			lo := time.Duration(math.Round(a.Min * float64(time.Second)))
			hi := time.Duration(math.Round(a.Max * float64(time.Second)))
			var d time.Duration
			switch param {
			case ParamBatchInterval:
				d = c.BatchInterval
			case ParamBlockInterval:
				d = c.BlockInterval
			}
			if d < lo {
				d = lo
			}
			if d > hi {
				d = hi
			}
			switch param {
			case ParamBatchInterval:
				c.BatchInterval = d
			case ParamBlockInterval:
				c.BlockInterval = d
			}
		case kindCount:
			lo, hi := int(math.Round(a.Min)), int(math.Round(a.Max))
			var n int
			switch param {
			case ParamExecutors:
				n = c.Executors
			case ParamRetryBudget:
				n = c.RetryBudget
			}
			if n < lo {
				n = lo
			}
			if n > hi {
				n = hi
			}
			switch param {
			case ParamExecutors:
				c.Executors = n
			case ParamRetryBudget:
				c.RetryBudget = n
			}
		case kindScalar:
			v := c.value(param)
			if math.IsNaN(v) || v < a.Min {
				v = a.Min
			}
			if v > a.Max {
				v = a.Max
			}
			setValue(&c, param, v)
		}
	}
	return c
}

// Lattice returns the per-axis discretized values, in axis order.
func (s ConfigSpace) Lattice() [][]float64 {
	vals := make([][]float64, len(s.Axes))
	for i, a := range s.Axes {
		vals[i] = a.Values()
	}
	return vals
}

// At maps a lattice coordinate vector (one index per axis, clamped to the
// axis's value count) to the configuration point it denotes. lattice is
// the space's Lattice, which a caller builds once and keeps.
func (s ConfigSpace) At(lattice [][]float64, idx []int) FullConfig {
	var c FullConfig
	for i, a := range s.Axes {
		vals := lattice[i]
		j := 0
		if i < len(idx) {
			j = idx[i]
		}
		if j < 0 {
			j = 0
		}
		if j >= len(vals) {
			j = len(vals) - 1
		}
		setValue(&c, a.Param, vals[j])
	}
	return s.Clamp(c)
}

// Norm maps a point to normalized [0,1] coordinates in axis order — the
// input representation the GP surrogate works in. A zero-span axis maps to
// 0.5.
func (s ConfigSpace) Norm(c FullConfig) []float64 {
	x := make([]float64, len(s.Axes))
	for i, a := range s.Axes {
		span := a.Max - a.Min
		if span <= 0 {
			x[i] = 0.5
			continue
		}
		v := (c.value(a.Param) - a.Min) / span
		if v < 0 {
			v = 0
		}
		if v > 1 {
			v = 1
		}
		x[i] = v
	}
	return x
}

// FromNorm maps normalized [0,1] coordinates back to a clamped point.
func (s ConfigSpace) FromNorm(x []float64) FullConfig {
	var c FullConfig
	for i, a := range s.Axes {
		u := 0.5
		if i < len(x) {
			u = x[i]
		}
		if u < 0 {
			u = 0
		}
		if u > 1 {
			u = 1
		}
		setValue(&c, a.Param, a.Min+(a.Max-a.Min)*u)
	}
	return s.Clamp(c)
}

// EngineBounds projects the space onto the engine's feasible region: batch
// interval, executor, and block-interval axes become Bounds fields (block
// bounds stay zero — not tunable — when the space has no block axis).
func (s ConfigSpace) EngineBounds() engine.Bounds {
	b := engine.DefaultBounds()
	if a, ok := s.Axis(ParamBatchInterval); ok {
		b.MinInterval = time.Duration(math.Round(a.Min * float64(time.Second)))
		b.MaxInterval = time.Duration(math.Round(a.Max * float64(time.Second)))
	}
	if a, ok := s.Axis(ParamExecutors); ok {
		b.MinExecutors = int(math.Round(a.Min))
		b.MaxExecutors = int(math.Round(a.Max))
	}
	if a, ok := s.Axis(ParamBlockInterval); ok {
		b.MinBlock = time.Duration(math.Round(a.Min * float64(time.Second)))
		b.MaxBlock = time.Duration(math.Round(a.Max * float64(time.Second)))
	}
	return b
}

// Intersect narrows the space to an engine's feasible region: the batch,
// executor, and block axes shrink to the overlap with the bounds, and the
// block axis is dropped entirely when the engine does not tune it. Tuners
// call this once at construction so every configuration they propose is
// admissible to Reconfigure.
func (s ConfigSpace) Intersect(b engine.Bounds) ConfigSpace {
	out := ConfigSpace{Version: s.Version}
	for _, a := range s.Axes {
		switch a.Param {
		case ParamBatchInterval:
			a = narrowAxis(a, b.MinInterval.Seconds(), b.MaxInterval.Seconds())
		case ParamExecutors:
			a = narrowAxis(a, float64(b.MinExecutors), float64(b.MaxExecutors))
		case ParamBlockInterval:
			if b.MaxBlock <= 0 {
				continue // engine pins the block interval; drop the axis
			}
			a = narrowAxis(a, b.MinBlock.Seconds(), b.MaxBlock.Seconds())
		}
		out.Axes = append(out.Axes, a)
	}
	return out
}

// narrowAxis shrinks an axis to [lo, hi]; a disjoint overlap falls back to
// the engine's own range (the engine is authoritative on feasibility).
func narrowAxis(a AxisSpec, lo, hi float64) AxisSpec {
	min, max := a.Min, a.Max
	if min < lo {
		min = lo
	}
	if max > hi {
		max = hi
	}
	if min > max {
		min, max = lo, hi
	}
	a.Min, a.Max = min, max
	return a
}

// Actuator is the engine surface Apply drives. The structural half of a
// point goes through Reconfigure and lands at the next batch boundary; the
// runtime knobs apply immediately. engine.Engine satisfies it.
type Actuator interface {
	Reconfigure(engine.Config) error
	SetIngestCap(float64)
	SetTaskMaxFailures(int)
	SetSpeculativeMultiplier(float64)
}

// Apply pushes a point onto the system: it clamps into the space, requests
// the structural reconfiguration, and sets the declared runtime knobs.
// Knobs whose axes the space does not declare are left untouched, so a
// narrow space never perturbs engine defaults.
func (s ConfigSpace) Apply(a Actuator, c FullConfig) error {
	c = s.Clamp(c)
	if err := a.Reconfigure(c.Engine()); err != nil {
		return err
	}
	if _, ok := s.Axis(ParamIngestCap); ok {
		a.SetIngestCap(c.IngestCap)
	}
	if _, ok := s.Axis(ParamRetryBudget); ok && c.RetryBudget > 0 {
		a.SetTaskMaxFailures(c.RetryBudget)
	}
	if _, ok := s.Axis(ParamSpecThreshold); ok && c.SpecThreshold > 0 {
		a.SetSpeculativeMultiplier(c.SpecThreshold)
	}
	return nil
}
