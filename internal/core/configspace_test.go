package core

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"nostop/internal/approx"
	"nostop/internal/engine"
)

// encode marshals a FullConfig for byte-level comparison — the sanctioned
// way to compare float-bearing structs under the floateq contract.
func encodeCfg(t *testing.T, c FullConfig) []byte {
	t.Helper()
	data, err := json.Marshal(c)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return data
}

func TestWidenedSpaceValid(t *testing.T) {
	s := WidenedSpace(engine.DefaultBounds(), 13000)
	if err := s.Validate(); err != nil {
		t.Fatalf("widened space invalid: %v", err)
	}
	if len(s.Axes) != 6 {
		t.Fatalf("widened space has %d axes, want 6", len(s.Axes))
	}
	for _, p := range []string{ParamBatchInterval, ParamExecutors, ParamBlockInterval,
		ParamIngestCap, ParamRetryBudget, ParamSpecThreshold} {
		if _, ok := s.Axis(p); !ok {
			t.Errorf("widened space missing axis %s", p)
		}
	}
	// Without a nominal rate there is no ingest axis to bracket.
	s = WidenedSpace(engine.DefaultBounds(), 0)
	if err := s.Validate(); err != nil {
		t.Fatalf("rate-free widened space invalid: %v", err)
	}
	if _, ok := s.Axis(ParamIngestCap); ok {
		t.Error("rate-free widened space should not declare an ingest cap axis")
	}
}

func TestValidateRejections(t *testing.T) {
	base := WidenedSpace(engine.DefaultBounds(), 13000)
	cases := []struct {
		name   string
		mutate func(*ConfigSpace)
		want   string
	}{
		{"bad version", func(s *ConfigSpace) { s.Version = "v0" }, "version"},
		{"no axes", func(s *ConfigSpace) { s.Axes = nil }, "no axes"},
		{"unknown param", func(s *ConfigSpace) { s.Axes[0].Param = "heap_size" }, "unknown param"},
		{"duplicate param", func(s *ConfigSpace) { s.Axes[1].Param = s.Axes[0].Param }, "duplicate"},
		{"inverted bounds", func(s *ConfigSpace) { s.Axes[0].Min, s.Axes[0].Max = s.Axes[0].Max, s.Axes[0].Min }, "above max"},
		{"fractional count", func(s *ConfigSpace) {
			for i := range s.Axes {
				if s.Axes[i].Param == ParamExecutors {
					s.Axes[i].Min = 1.5
				}
			}
		}, "integral"},
		{"duration too small", func(s *ConfigSpace) { s.Axes[0].Min = 1e-6 }, "duration range"},
		{"steps over cap", func(s *ConfigSpace) { s.Axes[0].Steps = 100 }, "steps"},
		{"missing mandatory", func(s *ConfigSpace) { s.Axes = s.Axes[2:] }, "must declare"},
	}
	for _, tc := range cases {
		s := ConfigSpace{Version: base.Version, Axes: append([]AxisSpec(nil), base.Axes...)}
		tc.mutate(&s)
		err := s.Validate()
		if err == nil {
			t.Errorf("%s: Validate accepted the spec", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

func TestEncodeDecodeFixedPoint(t *testing.T) {
	s := WidenedSpace(engine.DefaultBounds(), 13000)
	enc, err := s.Encode()
	if err != nil {
		t.Fatal(err)
	}
	s2, err := DecodeSpace(enc)
	if err != nil {
		t.Fatal(err)
	}
	enc2, err := s2.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc, enc2) {
		t.Fatalf("encode/decode not a fixed point:\n%s\n%s", enc, enc2)
	}
	if _, err := DecodeSpace([]byte(`{"version":"v1","axes":[],"bogus":1}`)); err == nil {
		t.Error("DecodeSpace accepted an unknown field")
	}
	if _, err := DecodeSpace([]byte(`{"version":"v1","axes":[]} {}`)); err == nil {
		t.Error("DecodeSpace accepted trailing data")
	}
}

func TestClampIdempotentAndSentinels(t *testing.T) {
	s := WidenedSpace(engine.DefaultBounds(), 13000)
	probes := []FullConfig{
		{},
		{BatchInterval: time.Millisecond, Executors: -4, BlockInterval: time.Hour, IngestCap: 1e9, RetryBudget: 100, SpecThreshold: 50},
		{BatchInterval: 3 * time.Second, Executors: 7, BlockInterval: 300 * time.Millisecond, IngestCap: 12000, RetryBudget: 3, SpecThreshold: 1.5},
	}
	for i, p := range probes {
		c1 := s.Clamp(p)
		c2 := s.Clamp(c1)
		if !bytes.Equal(encodeCfg(t, c1), encodeCfg(t, c2)) {
			t.Errorf("probe %d: clamp not idempotent: %+v vs %+v", i, c1, c2)
		}
		b := s.EngineBounds()
		if !b.Contains(c1.Engine()) {
			t.Errorf("probe %d: clamped config %+v escapes engine bounds", i, c1)
		}
	}
	// A two-axis space must reset every optional knob to its sentinel.
	narrow := ConfigSpace{Version: SpaceVersion, Axes: []AxisSpec{
		{Param: ParamBatchInterval, Min: 1, Max: 40},
		{Param: ParamExecutors, Min: 1, Max: 20},
	}}
	if err := narrow.Validate(); err != nil {
		t.Fatal(err)
	}
	c := narrow.Clamp(probes[1])
	if c.BlockInterval != 0 || c.RetryBudget != 0 || !approx.Zero(c.IngestCap) || !approx.Zero(c.SpecThreshold) {
		t.Errorf("narrow clamp kept optional knobs: %+v", c)
	}
}

func TestLatticeNormRoundTrip(t *testing.T) {
	s := WidenedSpace(engine.DefaultBounds(), 13000)
	lattice := s.Lattice()
	if len(lattice) != len(s.Axes) {
		t.Fatalf("lattice has %d axes, want %d", len(lattice), len(s.Axes))
	}
	for i, vals := range lattice {
		if len(vals) < 2 {
			t.Errorf("axis %s: lattice has %d values", s.Axes[i].Param, len(vals))
		}
		for j := 1; j < len(vals); j++ {
			if !(vals[j] > vals[j-1]) {
				t.Errorf("axis %s: lattice not strictly increasing at %d", s.Axes[i].Param, j)
			}
		}
	}
	// Corners and centre are fixed points of Clamp.
	for _, pick := range []func(n int) int{
		func(int) int { return 0 },
		func(n int) int { return n - 1 },
		func(n int) int { return n / 2 },
	} {
		idx := make([]int, len(lattice))
		for i := range idx {
			idx[i] = pick(len(lattice[i]))
		}
		c := s.At(lattice, idx)
		if !bytes.Equal(encodeCfg(t, c), encodeCfg(t, s.Clamp(c))) {
			t.Errorf("lattice point %v not clamp-stable", idx)
		}
		// Norm/FromNorm must reproduce the point bytes exactly: both ends
		// quantize durations and counts the same way.
		rt := s.FromNorm(s.Norm(c))
		if !bytes.Equal(encodeCfg(t, c), encodeCfg(t, rt)) {
			t.Errorf("norm round trip moved %+v to %+v", c, rt)
		}
	}
}

func TestIntersectDropsUntunableBlock(t *testing.T) {
	s := WidenedSpace(engine.DefaultBounds(), 13000)
	got := s.Intersect(engine.DefaultBounds()) // default bounds: block not tunable
	if err := got.Validate(); err != nil {
		t.Fatalf("intersection invalid: %v", err)
	}
	if _, ok := got.Axis(ParamBlockInterval); ok {
		t.Error("intersection kept the block axis on a block-pinned engine")
	}
	if len(got.Axes) != len(s.Axes)-1 {
		t.Errorf("intersection has %d axes, want %d", len(got.Axes), len(s.Axes)-1)
	}
	// With block-tunable bounds, the axis narrows instead of disappearing.
	b := engine.DefaultBounds()
	b.MinBlock = 200 * time.Millisecond
	b.MaxBlock = 800 * time.Millisecond
	got = s.Intersect(b)
	a, ok := got.Axis(ParamBlockInterval)
	if !ok {
		t.Fatal("intersection dropped the block axis on a block-tunable engine")
	}
	if a.Min < 0.2-approx.Tol || a.Max > 0.8+approx.Tol {
		t.Errorf("block axis [%v, %v] not narrowed to [0.2, 0.8]", a.Min, a.Max)
	}
}

// recorderActuator records Apply's calls for inspection.
type recorderActuator struct {
	cfg      engine.Config
	cap      float64
	capSet   bool
	retries  int
	spec     float64
	specSet  bool
	retrySet bool
}

func (r *recorderActuator) Reconfigure(c engine.Config) error { r.cfg = c; return nil }
func (r *recorderActuator) SetIngestCap(v float64)            { r.cap = v; r.capSet = true }
func (r *recorderActuator) SetTaskMaxFailures(n int)          { r.retries = n; r.retrySet = true }
func (r *recorderActuator) SetSpeculativeMultiplier(m float64) {
	r.spec = m
	r.specSet = true
}

func TestApplyDrivesDeclaredKnobsOnly(t *testing.T) {
	wide := WidenedSpace(engine.DefaultBounds(), 13000)
	var rec recorderActuator
	in := FullConfig{BatchInterval: 5 * time.Second, Executors: 4, BlockInterval: 500 * time.Millisecond,
		IngestCap: 15000, RetryBudget: 6, SpecThreshold: 2}
	if err := wide.Apply(&rec, in); err != nil {
		t.Fatal(err)
	}
	if rec.cfg.BatchInterval != 5*time.Second || rec.cfg.Executors != 4 {
		t.Errorf("Apply reconfigured %+v", rec.cfg)
	}
	if !rec.capSet || !approx.Eq(rec.cap, 15000) {
		t.Errorf("Apply cap: set=%v value=%v", rec.capSet, rec.cap)
	}
	if !rec.retrySet || rec.retries != 6 {
		t.Errorf("Apply retries: set=%v value=%d", rec.retrySet, rec.retries)
	}
	if !rec.specSet || !approx.Eq(rec.spec, 2) {
		t.Errorf("Apply spec: set=%v value=%v", rec.specSet, rec.spec)
	}

	narrow := ConfigSpace{Version: SpaceVersion, Axes: []AxisSpec{
		{Param: ParamBatchInterval, Min: 1, Max: 40},
		{Param: ParamExecutors, Min: 1, Max: 20},
	}}
	rec = recorderActuator{}
	if err := narrow.Apply(&rec, in); err != nil {
		t.Fatal(err)
	}
	if rec.capSet || rec.retrySet || rec.specSet {
		t.Errorf("narrow Apply touched undeclared knobs: %+v", rec)
	}
	if rec.cfg.BlockInterval != 0 {
		t.Errorf("narrow Apply forwarded a block interval: %+v", rec.cfg)
	}
}

func TestEngineActuatorSatisfiesInterface(t *testing.T) {
	var _ Actuator = (*engine.Engine)(nil)
}
