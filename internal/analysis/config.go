package analysis

// Scope restricts where an analyzer runs, by package import path. Patterns
// are exact paths or subtree patterns ending in "/..." (Go tool style).
type Scope struct {
	// Only, when non-empty, limits the analyzer to matching packages.
	Only []string
	// Exempt removes matching packages even when Only matches.
	Exempt []string
}

// Config carries the package-allowlist configuration for a run.
type Config struct {
	// Scopes maps analyzer name -> where it applies. Analyzers without an
	// entry run everywhere.
	Scopes map[string]Scope
	// Lists holds named sub-rule allowlists, keyed "<analyzer>.<list>",
	// e.g. "randsource.imports" -> packages allowed to import math/rand.
	Lists map[string][]string
}

// Applies reports whether the named analyzer should run on pkgPath. A nil
// Config applies everything everywhere.
func (c *Config) Applies(analyzer, pkgPath string) bool {
	if c == nil {
		return true
	}
	s := c.Scopes[analyzer]
	if len(s.Only) > 0 && !MatchAny(pkgPath, s.Only) {
		return false
	}
	return !MatchAny(pkgPath, s.Exempt)
}

// List returns the allowlist stored under key, or nil.
func (c *Config) List(key string) []string {
	if c == nil {
		return nil
	}
	return c.Lists[key]
}

// MatchAny reports whether path matches any of the patterns. An external
// test package ("pkg_test", as the loader names them) matches wherever its
// library package does: the contract does not change across the test split.
func MatchAny(path string, patterns []string) bool {
	base, isExtTest := cutSuffix(path, "_test")
	for _, pat := range patterns {
		if matchPattern(path, pat) || isExtTest && matchPattern(base, pat) {
			return true
		}
	}
	return false
}

// matchPattern matches an import path against an exact path or a "dir/..."
// subtree pattern ("dir/..." also matches "dir" itself).
func matchPattern(path, pat string) bool {
	if base, ok := cutSuffix(pat, "/..."); ok {
		return path == base || len(path) > len(base) && path[len(base)] == '/' && path[:len(base)] == base
	}
	return path == pat
}

func cutSuffix(s, suffix string) (string, bool) {
	if len(s) >= len(suffix) && s[len(s)-len(suffix):] == suffix {
		return s[:len(s)-len(suffix)], true
	}
	return s, false
}

// DefaultConfig encodes the repository's determinism contract:
//
//   - wallclock: all internal packages route time through sim.Clock; the cmd/
//     binaries and examples/ may read the wall clock (they talk to humans).
//   - randsource: only internal/rng may import math/rand (it owns the seeded
//     streams); the implicitly seeded global rand functions are banned
//     everywhere, including there.
//   - maporder and the global-rand ban run over every package, tests included:
//     a nondeterministic test is as flaky as a nondeterministic simulator.
//   - floateq: the numeric decision-making packages (core, spsa, engine) may
//     not steer control flow on exact float equality; use internal/approx.
//   - simgoroutine: internal packages stay single-threaded on the event loop;
//     internal/listener and internal/metrics are the allowlisted exceptions
//     (both serve concurrent HTTP readers behind their own locks, off the
//     simulation's critical path — the simulation side only ever touches
//     them from the event loop). internal/fleet and cmd/nostop-fleet are also
//     exempt: the fleet runner's worker pool lives *outside* the simulation —
//     each worker goroutine runs a complete, independent single-threaded
//     simulation on its own clock, and results merge deterministically by
//     job index, so fleet concurrency can never reorder events inside a run.
//   - internal/service is exempt from both wallclock and simgoroutine: its
//     wall mode runs real HTTP servers with real deadlines and pacer
//     goroutines, all behind the Timebase seam. Sim mode never reaches those
//     code paths — the deterministic soak tests replay byte-identically,
//     which is the property the analyzers exist to protect. No other
//     sim-core package gains wall-clock access (see the allowlist tests).
//   - hotalloc and obscontract: only internal packages carry the zero-alloc
//     and bounded-cardinality contracts — the cmd/ binaries and examples/
//     format human output, where an allocation or a Sprintf label is fine.
//   - lockguard runs everywhere: it only fires on fields that opt in with a
//     '// guarded by <mu>' annotation, so an unannotated package is free.
//   - deadapi checks the declarations of internal packages, against the
//     references of the whole module; analysistest is test support, whose
//     API only tests may call.
func DefaultConfig() *Config {
	return &Config{
		Scopes: map[string]Scope{
			"deadapi": {
				Only:   []string{"nostop/internal/..."},
				Exempt: []string{"nostop/internal/analysis/analysistest"},
			},
			"hotalloc":    {Only: []string{"nostop/internal/..."}},
			"obscontract": {Only: []string{"nostop/internal/..."}},
			"wallclock": {
				Only:   []string{"nostop/internal/..."},
				Exempt: []string{"nostop/internal/service/..."},
			},
			"floateq": {Only: []string{
				"nostop/internal/core/...",
				"nostop/internal/spsa/...",
				"nostop/internal/engine/...",
			}},
			"simgoroutine": {
				Only: []string{"nostop/internal/..."},
				Exempt: []string{
					"nostop/internal/listener/...",
					"nostop/internal/metrics/...",
					"nostop/internal/fleet/...",
					"nostop/internal/service/...",
					// cmd packages sit outside Only already; the explicit
					// entry documents that the fleet CLI's concurrency is
					// sanctioned, not merely unchecked.
					"nostop/cmd/nostop-fleet/...",
				},
			},
		},
		Lists: map[string][]string{
			"randsource.imports": {"nostop/internal/rng/..."},
		},
	}
}
