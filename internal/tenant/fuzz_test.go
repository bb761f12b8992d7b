package tenant

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"
)

// FuzzMixSpec feeds arbitrary bytes through the decode path of a tenant
// mix file: json.Unmarshal, then Validate. Decoding must never panic; a
// mix that decodes must re-encode to a stable fixed point; Validate must
// not panic on it. The corpus starts from Synthetic mixes under every
// allocator.
func FuzzMixSpec(f *testing.F) {
	for i, alloc := range []string{AllocPriority, AllocFairShare, AllocStatic} {
		data, err := json.Marshal(Synthetic(1+3*i, 4+i, 2, alloc, Duration(10*time.Minute)))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{"name":"m","tenants":[{"name":"a","workload":"logreg","trace":{"kind":"constant","rate":5000}}]}`))
	f.Add([]byte(`{"tenants":[{"name":"a"},{"name":"a"}],"horizon":"-5m"}`))
	f.Add([]byte(`{"nodes":-1,"cores_per_node":0,"allocator":"lottery","tenants":[]}`))
	f.Add([]byte(`{"name":"m","reconcile_every":"-5s","tenants":[{"name":"a","workload":"logreg","trace":{"kind":"constant","rate":5000}}]}`))
	f.Add([]byte(`{"name":"m","tenants":[{"name":"a","workload":"bogus","trace":{"kind":"constant","rate":5000}}]}`))
	f.Add([]byte(`{"name":"m","horizon":"2m","warmup":"10m","tenants":[{"name":"a","workload":"logreg","trace":{"kind":"constant","rate":5000}}]}`))
	f.Add([]byte(`{"name":"m","warmup":"-5m","tenants":[{"name":"a","workload":"logreg","trace":{"kind":"constant","rate":5000}}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var mix MixSpec
		if err := json.Unmarshal(data, &mix); err != nil {
			return // malformed input is fine; it just must not panic
		}
		enc1, err := json.Marshal(mix)
		if err != nil {
			t.Fatalf("marshal of decoded mix failed: %v", err)
		}
		var mix2 MixSpec
		if err := json.Unmarshal(enc1, &mix2); err != nil {
			t.Fatalf("re-decode of own encoding failed: %v\nencoding: %s", err, enc1)
		}
		enc2, err := json.Marshal(mix2)
		if err != nil {
			t.Fatalf("second marshal failed: %v", err)
		}
		if !bytes.Equal(enc1, enc2) {
			t.Fatalf("encoding not a fixed point:\nfirst:  %s\nsecond: %s", enc1, enc2)
		}
		_, _ = mix.Validate()
	})
}
