// Package rng provides seedable, splittable random-number streams.
//
// Every stochastic component of the simulation (workload noise, input-rate
// variation, SPSA perturbations, broker jitter) draws from its own named
// stream split off a root seed. Components therefore consume randomness
// independently: adding draws to one component does not perturb the sequence
// seen by another, which keeps experiments comparable across code changes
// and makes regressions bisectable.
package rng

import (
	"hash/fnv"
	"math"
	"math/rand"
)

// Stream is a deterministic random stream. It wraps math/rand with the
// distributions used across the simulator. Not safe for concurrent use;
// the simulation kernel is single-threaded by design.
//
// The math/rand source (a 607-word table, about 20 µs to seed) is built on
// the stream's first draw, so a stream nothing draws from costs only its
// seed and name.
type Stream struct {
	r    *rand.Rand // nil until the first draw
	seed uint64
	name string
}

// New returns the root stream for a seed.
func New(seed uint64) *Stream {
	return &Stream{seed: seed, name: "root"}
}

// Split derives an independent child stream identified by name. The child's
// seed mixes the parent seed with an FNV-1a hash of the name, so the same
// (seed, path-of-names) always yields the same stream.
func (s *Stream) Split(name string) *Stream {
	h := fnv.New64a()
	h.Write([]byte(s.name))
	h.Write([]byte{0})
	h.Write([]byte(name))
	return &Stream{seed: s.childSeed(h.Sum64()), name: s.name + "/" + name}
}

// childSeed mixes the parent seed with the FNV-1a hash of a child's name.
func (s *Stream) childSeed(nameHash uint64) uint64 {
	return s.seed*0x9e3779b97f4a7c15 + nameHash
}

// SplitFloat64 returns s.Split(prefix + strconv.FormatInt(i, 10)).Float64()
// without building the name or seeding a source: it hashes the name in
// place and computes the child source's first value in closed form (see
// firstInt63). Allocation-free; this is a rate trace's per-slot draw.
//
//nostop:hotpath
func (s *Stream) SplitFloat64(prefix string, i int64) float64 {
	var buf [20]byte
	num := decimal(&buf, i)
	h := fnv1a(fnvOffset, s.name) * fnvPrime // the 0 byte Split writes between the names
	seed := s.childSeed(fnv1a(fnv1a(h, prefix), num))
	// rand.Rand.Float64 of the child's first Int63, unless that rounds to 1.
	if f := float64(firstInt63(int64(seed))) / (1 << 63); f < 1 {
		return f
	}
	return s.resampledFloat64(prefix, num)
}

// resampledFloat64 is SplitFloat64 where the first Int63 rounds to 1 and
// Float64 resamples: it seeds the child's source.
//
//nostop:allow hotalloc -- taken about once in 2^54 draws
func (s *Stream) resampledFloat64(prefix string, num []byte) float64 {
	return s.Split(prefix + string(num)).Float64()
}

// FNV-1a 64, as hash/fnv computes it.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// fnv1a folds b into the FNV-1a 64 hash state h.
func fnv1a[T string | []byte](h uint64, b T) uint64 {
	for j := 0; j < len(b); j++ {
		h = (h ^ uint64(b[j])) * fnvPrime
	}
	return h
}

// decimal writes i in base 10 at the end of buf and returns those bytes:
// strconv.FormatInt(i, 10) without the string.
func decimal(buf *[20]byte, i int64) []byte {
	n := len(buf)
	u := uint64(i)
	if i < 0 {
		u = -u
	}
	for {
		n--
		buf[n] = byte('0' + u%10)
		u /= 10
		if u == 0 {
			break
		}
	}
	if i < 0 {
		n--
		buf[n] = '-'
	}
	return buf[n:]
}

// math/rand's seeding LCG, x ← lcgMul·x mod lcgMod, and words 333 and 606
// of its rngCooked table (Go's src/math/rand/rng.go). Both are part of
// math/rand's Go 1 value stream, so they do not change between releases.
const (
	lcgMul    = 48271
	lcgMod    = 1<<31 - 1
	cooked333 = -4633371852008891965
	cooked606 = 4152330101494654406
)

// firstInt63 returns rand.NewSource(seed).Int63() without seeding the
// source. Seeding fills a 607-word table whose word i is three consecutive
// states 21+3i..23+3i of the LCG x ← 48271·x mod (2^31−1), XORed with
// rngCooked[i]; the first draw adds words 333 and 606. Both are reached by
// jumping the LCG ahead with 48271^1020 and 48271^1839.
func firstInt63(seed int64) int64 {
	const (
		pow1020 = 2082024995 // lcgMul^1020 mod lcgMod
		pow1839 = 933195560  // lcgMul^1839 mod lcgMod
	)
	seed %= lcgMod
	if seed < 0 {
		seed += lcgMod
	}
	if seed == 0 {
		seed = 89482311
	}
	x := uint64(seed)
	return (seedWord(x*pow1020%lcgMod, cooked333) + seedWord(x*pow1839%lcgMod, cooked606)) & (1<<63 - 1)
}

// seedWord is one word of math/rand's seeded table, given the LCG state
// that starts it.
func seedWord(x uint64, cooked int64) int64 {
	u := int64(x) << 40
	x = x * lcgMul % lcgMod
	u ^= int64(x) << 20
	x = x * lcgMul % lcgMod
	u ^= int64(x)
	return u ^ cooked
}

// source returns the stream's math/rand source, seeding it on first use.
func (s *Stream) source() *rand.Rand {
	if s.r == nil {
		s.r = rand.New(rand.NewSource(int64(s.seed)))
	}
	return s.r
}

// Rand exposes the stream's underlying seeded *rand.Rand for interop with
// standard-library APIs that accept one (e.g. testing/quick's Config.Rand,
// whose default source is time-seeded and would break run-to-run
// reproducibility). The returned value shares the stream's state.
//
//nostop:allow deadapi -- tests hand testing/quick a seeded *rand.Rand, and randsource bans math/rand outside internal/rng
func (s *Stream) Rand() *rand.Rand { return s.source() }

// Float64 returns a uniform value in [0,1).
func (s *Stream) Float64() float64 { return s.source().Float64() }

// Intn returns a uniform int in [0,n). n must be positive.
func (s *Stream) Intn(n int) int { return s.source().Intn(n) }

// Int63 returns a non-negative uniform 63-bit integer.
func (s *Stream) Int63() int64 { return s.source().Int63() }

// Uniform returns a uniform value in [lo, hi).
func (s *Stream) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*s.source().Float64()
}

// Norm returns a normal sample with the given mean and standard deviation.
func (s *Stream) Norm(mean, stddev float64) float64 {
	return mean + stddev*s.source().NormFloat64()
}

// Lognormal returns exp(N(mu, sigma)). For multiplicative noise around 1,
// use mu = -sigma*sigma/2 so the mean is exactly 1.
func (s *Stream) Lognormal(mu, sigma float64) float64 {
	return math.Exp(s.Norm(mu, sigma))
}

// NoiseFactor returns a multiplicative lognormal factor with mean 1 and the
// given coefficient of variation (approximately, for small cv).
func (s *Stream) NoiseFactor(cv float64) float64 {
	if cv <= 0 {
		return 1
	}
	sigma := math.Sqrt(math.Log(1 + cv*cv))
	return s.Lognormal(-sigma*sigma/2, sigma)
}

// Rademacher returns +1 or -1 with probability 1/2 each — the symmetric
// Bernoulli distribution SPSA requires for its perturbation components.
func (s *Stream) Rademacher() float64 {
	if s.source().Int63()&1 == 0 {
		return -1
	}
	return 1
}

// Exp returns an exponential sample with the given mean.
func (s *Stream) Exp(mean float64) float64 {
	return s.source().ExpFloat64() * mean
}
