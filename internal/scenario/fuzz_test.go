package scenario

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// FuzzScenarioSpec feeds arbitrary bytes through the path a spec file
// takes in nostop-ask: strict decode, validate, normalize. Decoding must
// never panic; a spec that decodes must re-encode to a stable fixed point
// that decodes again; Validate and Normalize must not panic on it. The
// corpus starts from the checked-in example specs.
func FuzzScenarioSpec(f *testing.F) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "examples", "scenarios", "*.json"))
	if err != nil || len(paths) == 0 {
		f.Fatalf("no example specs (%v)", err)
	}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{"name":"x","hypothesis":"h","workload":"logreg","seeds":"1-3","slos":["delay_p95 < 8s"]}`))
	f.Add([]byte(`{"name":"x","hypothesis":"h","seeds":[1],"tenancy":{"mix":{"tenants":[{"name":"a","workload":"linreg"}]}},"slos":["a:delay_mean < 5s"]}`))
	f.Add([]byte(`{"name":"x","seeds":"5-1"}`))
	f.Add([]byte(`{"name":"x","hypothesis":"h","workload":"logreg","seeds":"18446744073709551615-18446744073709551615","slos":["delay_p95 < 8s"]}`))
	f.Add([]byte(`{} {}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := Decode(data)
		if err != nil {
			return // malformed input is fine; it just must not panic
		}
		enc1, err := json.Marshal(spec)
		if err != nil {
			t.Fatalf("marshal of decoded spec failed: %v", err)
		}
		spec2, err := Decode(enc1)
		if err != nil {
			t.Fatalf("re-decode of own encoding failed: %v\nencoding: %s", err, enc1)
		}
		enc2, err := json.Marshal(spec2)
		if err != nil {
			t.Fatalf("second marshal failed: %v", err)
		}
		if !bytes.Equal(enc1, enc2) {
			t.Fatalf("encoding not a fixed point:\nfirst:  %s\nsecond: %s", enc1, enc2)
		}
		_ = spec.Validate()
		_ = spec.Normalize()
	})
}
