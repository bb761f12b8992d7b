package metrics

import (
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"testing"

	"nostop/internal/rng"
)

// refWritePrometheus is the exposition writer WritePrometheus replaced, a
// line of fmt.Fprintf at a time, kept as the reference its bytes must
// equal.
func refWritePrometheus(r *Registry, w io.Writer) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	var names []string
	for name := range r.families {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		f := r.families[name]
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.kind); err != nil {
			return err
		}
		var sigs []string
		for sig := range f.children {
			sigs = append(sigs, sig)
		}
		sort.Strings(sigs)
		for _, sig := range sigs {
			if err := refWriteChild(w, f, f.children[sig]); err != nil {
				return err
			}
		}
	}
	return nil
}

func refWriteChild(w io.Writer, f *family, c *child) error {
	switch f.kind {
	case KindCounter, KindGauge:
		_, err := fmt.Fprintf(w, "%s%s %s\n", f.name, refRenderLabels(c.labels), refFormatValue(c.value))
		return err
	case KindHistogram:
		var cum uint64
		for i, bound := range f.buckets {
			cum += c.bucketCounts[i]
			if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n",
				f.name, refRenderLabels(c.labels, L("le", refFormatValue(bound))), cum); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n",
			f.name, refRenderLabels(c.labels, L("le", "+Inf")), c.count); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s_sum%s %s\n%s_count%s %d\n",
			f.name, refRenderLabels(c.labels), refFormatValue(c.sum),
			f.name, refRenderLabels(c.labels), c.count); err != nil {
			return err
		}
	}
	return nil
}

func refFormatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatFloat(v, 'f', -1, 64)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func refEscapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return v
}

func refRenderLabels(labels []Label, extra ...Label) string {
	all := append(append([]Label(nil), labels...), extra...)
	if len(all) == 0 {
		return ""
	}
	sort.Slice(all, func(i, j int) bool { return all[i].Key < all[j].Key })
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range all {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(refEscapeLabel(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// matchReference fails unless WritePrometheus writes exactly the
// reference writer's bytes for r.
func matchReference(t *testing.T, name string, r *Registry) {
	t.Helper()
	var got, want strings.Builder
	if err := r.WritePrometheus(&got); err != nil {
		t.Fatalf("%s: WritePrometheus: %v", name, err)
	}
	if err := refWritePrometheus(r, &want); err != nil {
		t.Fatalf("%s: reference: %v", name, err)
	}
	if got.String() != want.String() {
		t.Fatalf("%s: exposition differs from the reference\n got:\n%s\nwant:\n%s", name, got.String(), want.String())
	}
}

// TestExpositionMatchesReferenceFixed holds WritePrometheus to the
// reference on the hard cases: label values that need escaping, label
// keys on both sides of le, histograms, integral values on both sides of
// the 1e15 switch, and negative, -0, NaN and infinite values.
func TestExpositionMatchesReferenceFixed(t *testing.T) {
	r := NewRegistry()
	r.Counter("esc_total", "escapes", L("v", "a\\b\"c\nd"), L("w", `\\"" plain`)).Inc()
	r.Counter("esc_total", "escapes", L("v", "tab\tunicode é <&>")).Add(3)
	r.Counter("plain_total", "no labels").Add(41)
	r.Counter("many_total", "labels out of order", L("zeta", "z"), L("alpha", "a"), L("mid", "m")).Add(1)
	for i, v := range []float64{
		999999999999999, 1e15, 1e15 + 2, -1e15, -999999999999999, 1 << 53, 1e16, 1e21, 1e-7,
		0.1, 2.5, -3, math.Copysign(0, -1), 0, math.NaN(), math.Inf(1), math.Inf(-1),
		math.MaxFloat64, math.SmallestNonzeroFloat64,
	} {
		r.Gauge("values", "one child per value", L("i", strconv.Itoa(i))).Set(v)
	}
	r.Gauge("neg_zero", "a -0 gauge").Set(math.Copysign(0, -1))
	r.Gauge("neg", "a negative gauge").Set(-12.75)
	h := r.Histogram("delay_seconds", "no labels", DelaySecondsBuckets())
	for _, v := range []float64{0.05, 0.1, 0.3, 2, 7, 1000} {
		h.Observe(v)
	}
	for _, ls := range [][]Label{
		{L("app", "x")},                     // sorts before le
		{L("tenant", "y")},                  // sorts after le
		{L("tenant", "q\""), L("app", "p")}, // both sides, escaped
		{L("le", "user")},                   // a user label named le
	} {
		h := r.Histogram("records", "labelled", RecordCountBuckets(), ls...)
		h.Observe(5e5)
		h.Observe(3e7)
	}
	r.Histogram("big_sum", "a sum past 1e15", []float64{1}).Observe(3e15)
	matchReference(t, "fixed", r)
	matchReference(t, "empty", NewRegistry())
}

// TestExpositionMatchesReferenceRandom holds WritePrometheus to the
// reference on seeded random registries.
func TestExpositionMatchesReferenceRandom(t *testing.T) {
	rnd := rng.New(30).Split("exposition").Rand()
	alphabet := []string{"a", "z", "le", "\\", "\"", "\n", "é", " ", "{", "}", "="}
	word := func() string {
		var b strings.Builder
		for n := rnd.Intn(5); n > 0; n-- {
			b.WriteString(alphabet[rnd.Intn(len(alphabet))])
		}
		return b.String()
	}
	keys := []string{"app", "kind", "le_x", "lane", "tenant", "z"}
	value := func() float64 {
		switch rnd.Intn(4) {
		case 0:
			return float64(rnd.Int63n(1<<54) - 1<<53)
		case 1:
			return (rnd.Float64() - 0.5) * math.Pow(10, float64(rnd.Intn(40)-20))
		case 2:
			return float64(rnd.Intn(1000))
		default:
			return 1e15 * float64(rnd.Intn(3)-1)
		}
	}
	for iter := 0; iter < 200; iter++ {
		r := NewRegistry()
		for f := rnd.Intn(6); f >= 0; f-- {
			name := fmt.Sprintf("fam_%d", rnd.Intn(8))
			kind := Kind(rnd.Intn(3))
			for c := rnd.Intn(4); c >= 0; c-- {
				var ls []Label
				for _, k := range keys {
					if rnd.Intn(3) == 0 {
						ls = append(ls, L(k, word()))
					}
				}
				func() {
					defer func() { _ = recover() }() // a name reused with another kind or buckets
					switch kind {
					case KindCounter:
						r.Counter(name, word(), ls...).Add(math.Abs(value()))
					case KindGauge:
						r.Gauge(name, word(), ls...).Set(value())
					default:
						h := r.Histogram(name, word(), []float64{-1, 0, 0.5, 1e15, 1e16}, ls...)
						for n := rnd.Intn(5); n > 0; n-- {
							h.Observe(value())
						}
					}
				}()
			}
		}
		matchReference(t, fmt.Sprintf("registry %d", iter), r)
	}
}

// TestExpositionFlushesAndFails checks an exposition far larger than the
// scratch buffer arrives whole, and that a failing writer's error is
// returned.
func TestExpositionFlushesAndFails(t *testing.T) {
	r := NewRegistry()
	for i := 0; i < 500; i++ {
		r.Histogram("h_seconds", "many children", DelaySecondsBuckets(), L("i", strconv.Itoa(i))).Observe(float64(i))
	}
	matchReference(t, "large", r)
	var w countingWriter
	if err := r.WritePrometheus(&w); err != nil {
		t.Fatal(err)
	}
	if w.writes < 2 {
		t.Errorf("a %d-byte exposition arrived in %d writes, want several", w.n, w.writes)
	}
	boom := errors.New("boom")
	if err := r.WritePrometheus(failingWriter{boom}); !errors.Is(err, boom) {
		t.Errorf("failing writer: got %v, want %v", err, boom)
	}
}

type countingWriter struct{ n, writes int }

func (w *countingWriter) Write(p []byte) (int, error) {
	w.n += len(p)
	w.writes++
	return len(p), nil
}

type failingWriter struct{ err error }

func (w failingWriter) Write(p []byte) (int, error) { return 0, w.err }
