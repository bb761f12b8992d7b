package rng

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"testing"
	"testing/quick"
)

func TestDeterministicForSeed(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same seed produced different sequences")
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Float64() == b.Float64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds matched on %d/100 draws", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	// Drawing extra values from one child must not change a sibling.
	root1 := New(7)
	root2 := New(7)
	a1 := root1.Split("a")
	b1 := root1.Split("b")
	a2 := root2.Split("a")
	b2 := root2.Split("b")
	for i := 0; i < 50; i++ {
		a1.Float64() // consume from a1 only
	}
	_ = a2
	for i := 0; i < 20; i++ {
		if b1.Float64() != b2.Float64() {
			t.Fatal("sibling stream perturbed by other stream's draws")
		}
	}
}

func TestSplitSameNameSameStream(t *testing.T) {
	x := New(9).Split("noise")
	y := New(9).Split("noise")
	for i := 0; i < 20; i++ {
		if x.Float64() != y.Float64() {
			t.Fatal("same-name splits differ")
		}
	}
}

func TestSplitDifferentNamesDiffer(t *testing.T) {
	root := New(3)
	x := root.Split("alpha")
	y := root.Split("beta")
	same := 0
	for i := 0; i < 100; i++ {
		if x.Float64() == y.Float64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("differently named splits matched %d/100 draws", same)
	}
}

func TestNestedSplitName(t *testing.T) {
	s := New(1).Split("engine").Split("noise")
	if s.Name() != "root/engine/noise" {
		t.Fatalf("name %q", s.Name())
	}
}

func TestUniformRange(t *testing.T) {
	s := New(11)
	for i := 0; i < 1000; i++ {
		v := s.Uniform(5, 10)
		if v < 5 || v >= 10 {
			t.Fatalf("Uniform(5,10) = %v out of range", v)
		}
	}
}

func TestUniformRangeProperty(t *testing.T) {
	s := New(13)
	f := func(lo, span float64) bool {
		lo = math.Mod(lo, 1e6)
		span = math.Abs(math.Mod(span, 1e6)) + 1e-9
		v := s.Uniform(lo, lo+span)
		return v >= lo && v < lo+span
	}
	if err := quick.Check(f, &quick.Config{Rand: New(17).Rand()}); err != nil {
		t.Error(err)
	}
}

func TestRademacherIsPlusMinusOneAndBalanced(t *testing.T) {
	s := New(17)
	plus := 0
	const n = 10000
	for i := 0; i < n; i++ {
		v := s.Rademacher()
		if v != 1 && v != -1 {
			t.Fatalf("Rademacher = %v", v)
		}
		if v == 1 {
			plus++
		}
	}
	frac := float64(plus) / n
	if frac < 0.45 || frac > 0.55 {
		t.Fatalf("Rademacher +1 fraction %.3f far from 0.5", frac)
	}
}

func TestNoiseFactorMeanNearOne(t *testing.T) {
	s := New(23)
	const n = 20000
	sum := 0.0
	for i := 0; i < n; i++ {
		v := s.NoiseFactor(0.2)
		if v <= 0 {
			t.Fatalf("NoiseFactor returned non-positive %v", v)
		}
		sum += v
	}
	mean := sum / n
	if mean < 0.97 || mean > 1.03 {
		t.Fatalf("NoiseFactor mean %.4f far from 1", mean)
	}
}

func TestNoiseFactorZeroCV(t *testing.T) {
	s := New(29)
	if v := s.NoiseFactor(0); v != 1 {
		t.Fatalf("NoiseFactor(0) = %v, want 1", v)
	}
	if v := s.NoiseFactor(-1); v != 1 {
		t.Fatalf("NoiseFactor(-1) = %v, want 1", v)
	}
}

func TestNormMoments(t *testing.T) {
	s := New(31)
	const n = 50000
	sum, sumsq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := s.Norm(3, 2)
		sum += v
		sumsq += v * v
	}
	mean := sum / n
	variance := sumsq/n - mean*mean
	if math.Abs(mean-3) > 0.05 {
		t.Fatalf("Norm mean %.3f, want ~3", mean)
	}
	if math.Abs(math.Sqrt(variance)-2) > 0.05 {
		t.Fatalf("Norm stddev %.3f, want ~2", math.Sqrt(variance))
	}
}

func TestExpMean(t *testing.T) {
	s := New(37)
	const n = 50000
	sum := 0.0
	for i := 0; i < n; i++ {
		v := s.Exp(4)
		if v < 0 {
			t.Fatalf("Exp returned negative %v", v)
		}
		sum += v
	}
	if mean := sum / n; math.Abs(mean-4) > 0.15 {
		t.Fatalf("Exp mean %.3f, want ~4", mean)
	}
}

func TestPermIsPermutation(t *testing.T) {
	s := New(41)
	p := s.Perm(10)
	seen := make([]bool, 10)
	for _, v := range p {
		if v < 0 || v >= 10 || seen[v] {
			t.Fatalf("Perm not a permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestIntnRange(t *testing.T) {
	s := New(43)
	for i := 0; i < 1000; i++ {
		if v := s.Intn(7); v < 0 || v >= 7 {
			t.Fatalf("Intn(7) = %d", v)
		}
	}
}

// edgeSeeds are the seeds where math/rand's seeding branches: zero (mapped
// to 89482311), the modulus 2^31−1 and its negative (both reduce to zero),
// 89482311 itself, and the int64 extremes.
var edgeSeeds = []int64{0, 1, -1, 1<<31 - 1, -(1<<31 - 1), 1 << 31, 89482311,
	math.MinInt64, math.MaxInt64}

// TestFirstInt63MatchesMathRand checks the closed-form first draw against a
// seeded math/rand source on the edge seeds and 100,000 random ones.
func TestFirstInt63MatchesMathRand(t *testing.T) {
	src := rand.NewSource(0)
	check := func(seed int64) {
		src.Seed(seed)
		if got, want := firstInt63(seed), src.Int63(); got != want {
			t.Fatalf("firstInt63(%d) = %d, want %d", seed, got, want)
		}
	}
	for _, seed := range edgeSeeds {
		check(seed)
	}
	r := New(2053).Split("rng/first-int63").Rand()
	for i := 0; i < 100000; i++ {
		check(int64(r.Uint64()))
	}
}

// TestSplitFloat64MatchesSplit checks the closed-form per-index draw
// against building the child stream by name, over nested stream paths,
// prefixes (empty and multi-byte included) and indices from the int64
// extremes to random ones.
func TestSplitFloat64MatchesSplit(t *testing.T) {
	r := New(4099).Split("rng/split-float64").Rand()
	indices := []int64{0, 1, -1, 9, 10, -10, 99, 100, math.MinInt64, math.MaxInt64, math.MinInt64 + 1}
	for k := 0; k < 200; k++ {
		indices = append(indices, r.Int63n(1<<40)-1<<39, int64(r.Uint64()))
	}
	streams := []*Stream{New(0), New(1), New(math.MaxUint64), New(7).Split("trace"),
		New(42).Split("fleet").Split("job-3"), New(9).Split("")}
	for _, s := range streams {
		for _, prefix := range []string{"slot-", "", "é/\x00"} {
			for _, i := range indices {
				want := s.Split(prefix + strconv.FormatInt(i, 10)).Float64()
				if got := s.SplitFloat64(prefix, i); got != want {
					t.Fatalf("%s.SplitFloat64(%q, %d) = %v, want %v", s.Name(), prefix, i, got, want)
				}
			}
		}
		// The resample fallback no search will reach draws the same value.
		if got, want := s.resampledFloat64("slot-", []byte("-12")), s.Split("slot--12").Float64(); got != want {
			t.Fatalf("%s.resampledFloat64 = %v, want %v", s.Name(), got, want)
		}
	}
}

func TestAllocsSplitFloat64(t *testing.T) {
	s := New(5).Split("trace")
	i := int64(0)
	allocs := testing.AllocsPerRun(1000, func() {
		i++
		s.SplitFloat64("slot-", i)
	})
	if allocs != 0 {
		t.Fatalf("SplitFloat64 allocates %.1f/op, want 0", allocs)
	}
}

// eager seeds s's source at once, as New and Split did before the source
// became lazy.
func eager(s *Stream) *Stream {
	s.r = rand.New(rand.NewSource(int64(s.seed)))
	return s
}

// TestLazySourceLockstep drives a lazily seeded stream and an eagerly
// seeded one through the same random sequences of every method, splitting
// children before and after draws, and requires the same values throughout.
func TestLazySourceLockstep(t *testing.T) {
	for run := 0; run < 20; run++ {
		ops := New(uint64(run)).Split("rng/lockstep").Rand()
		lazy, ref := New(uint64(run)), eager(New(uint64(run)))
		for step := 0; step < 300; step++ {
			var got, want any
			switch op := ops.Intn(14); op {
			case 0:
				got, want = lazy.Float64(), ref.Float64()
			case 1:
				n := 1 + ops.Intn(1000)
				got, want = lazy.Intn(n), ref.Intn(n)
			case 2:
				got, want = lazy.Int63(), ref.Int63()
			case 3:
				got, want = lazy.Uniform(-3, 8), ref.Uniform(-3, 8)
			case 4:
				got, want = lazy.Norm(1, 2), ref.Norm(1, 2)
			case 5:
				got, want = lazy.Lognormal(0.1, 0.3), ref.Lognormal(0.1, 0.3)
			case 6:
				got, want = lazy.NoiseFactor(0.2), ref.NoiseFactor(0.2)
			case 7:
				got, want = lazy.Rademacher(), ref.Rademacher()
			case 8:
				got, want = lazy.Exp(4), ref.Exp(4)
			case 9:
				n := ops.Intn(20)
				got, want = fmt.Sprint(lazy.Perm(n)), fmt.Sprint(ref.Perm(n))
			case 10:
				a, b := []int{0, 1, 2, 3, 4, 5, 6}, []int{0, 1, 2, 3, 4, 5, 6}
				lazy.Shuffle(len(a), func(i, j int) { a[i], a[j] = a[j], a[i] })
				ref.Shuffle(len(b), func(i, j int) { b[i], b[j] = b[j], b[i] })
				got, want = fmt.Sprint(a), fmt.Sprint(b)
			case 11:
				got, want = lazy.Rand().Uint64(), ref.Rand().Uint64()
			case 12, 13:
				// Descend into a child; op 13 first draws from the parent.
				if op == 13 {
					got, want = lazy.Float64(), ref.Float64()
				}
				name := fmt.Sprintf("c%d", ops.Intn(4))
				lazy, ref = lazy.Split(name), eager(ref.Split(name))
				if lazy.Name() != ref.Name() {
					t.Fatalf("run %d step %d: child names %q and %q", run, step, lazy.Name(), ref.Name())
				}
			}
			if got != want {
				t.Fatalf("run %d step %d (%s): lazy %v, eager %v", run, step, ref.Name(), got, want)
			}
		}
	}
}
