package core

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"nostop/internal/engine"
)

// decodeSpace reads a ConfigSpace as the scenario spec decoder reads the
// space inside a spec: strict JSON, unknown fields rejected, then validated.
func decodeSpace(data []byte) (ConfigSpace, error) {
	var s ConfigSpace
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return ConfigSpace{}, err
	}
	return s, s.Validate()
}

// FuzzConfigSpace pins the config space's safety properties on arbitrary
// spec JSON: decoding never panics, whatever decodes cleanly re-encodes to
// a fixed point (decode∘encode == identity on the encoded bytes), Clamp is
// idempotent on a deterministic probe set, and every lattice corner is
// clamp-stable inside the declared engine bounds. Comparisons are over
// canonical JSON bytes — the floateq-sanctioned way to compare float-bearing
// values.
func FuzzConfigSpace(f *testing.F) {
	wide := WidenedSpace(engine.DefaultBounds(), 13000)
	if enc, err := json.Marshal(wide); err == nil {
		f.Add(enc)
	}
	f.Add([]byte(`{"version":"v1","axes":[{"param":"batch_interval","min":1,"max":40},{"param":"executors","min":1,"max":20}]}`))
	f.Add([]byte(`{"version":"v1","axes":[{"param":"batch_interval","min":1,"max":40,"steps":64},{"param":"executors","min":2,"max":2},{"param":"speculation_threshold","min":0,"max":1e12}]}`))
	f.Add([]byte(`{"version":"v2","axes":[{"param":"heap","min":5,"max":1}]}`))
	f.Add([]byte(`not json at all`))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := decodeSpace(data)
		if err != nil {
			return // rejected input: the only guarantee is "no panic"
		}
		enc, err := json.Marshal(s)
		if err != nil {
			t.Fatalf("valid space failed to encode: %v", err)
		}
		s2, err := decodeSpace(enc)
		if err != nil {
			t.Fatalf("re-decoding own encoding failed: %v", err)
		}
		enc2, err := json.Marshal(s2)
		if err != nil {
			t.Fatalf("re-encoding failed: %v", err)
		}
		if !bytes.Equal(enc, enc2) {
			t.Fatalf("encode/decode not a fixed point:\n%s\n%s", enc, enc2)
		}

		probes := probeConfigs(s)
		for i, p := range probes {
			c1 := s.Clamp(p)
			c2 := s.Clamp(c1)
			b1, err1 := json.Marshal(c1)
			b2, err2 := json.Marshal(c2)
			if err1 != nil || err2 != nil {
				t.Fatalf("probe %d: marshal: %v %v", i, err1, err2)
			}
			if !bytes.Equal(b1, b2) {
				t.Fatalf("probe %d: clamp not idempotent:\n%s\n%s", i, b1, b2)
			}
			if !s.EngineBounds().Contains(c1.Engine()) {
				t.Fatalf("probe %d: clamped config %+v escapes engine bounds", i, c1)
			}
		}

		// Every lattice corner is a clamp fixed point.
		lattice := s.Lattice()
		for corner := 0; corner < 1<<uint(len(lattice)) && corner < 64; corner++ {
			idx := make([]int, len(lattice))
			for a := range idx {
				if corner&(1<<uint(a)) != 0 {
					idx[a] = len(lattice[a]) - 1
				}
			}
			c := s.At(lattice, idx)
			b1, _ := json.Marshal(c)
			b2, _ := json.Marshal(s.Clamp(c))
			if !bytes.Equal(b1, b2) {
				t.Fatalf("lattice corner %v not clamp-stable", idx)
			}
		}
	})
}

// probeConfigs derives a deterministic probe set from the space itself:
// zero, far-out-of-range on both sides, and per-axis boundary values.
func probeConfigs(s ConfigSpace) []FullConfig {
	probes := []FullConfig{
		{},
		{BatchInterval: -time.Hour, Executors: -1000, BlockInterval: -time.Hour, IngestCap: -1e18, RetryBudget: -1000, SpecThreshold: -1e18},
		{BatchInterval: 1000 * time.Hour, Executors: 1 << 30, BlockInterval: 1000 * time.Hour, IngestCap: 1e18, RetryBudget: 1 << 30, SpecThreshold: 1e18},
	}
	var lo, hi FullConfig
	for _, a := range s.Axes {
		setValue(&lo, a.Param, a.Min)
		setValue(&hi, a.Param, a.Max)
	}
	return append(probes, lo, hi)
}
