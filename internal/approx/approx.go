// Package approx provides epsilon-tolerant floating-point comparisons for
// control-flow decisions.
//
// The floateq analyzer (internal/analysis) bans exact ==/!= between floats in
// the numeric decision-making packages: a branch guarded by exact equality
// can flip under rounding differences that are invisible in reported metrics,
// which is precisely the kind of hair-trigger nondeterminism the determinism
// contract exists to remove. These helpers are the sanctioned replacement.
package approx

import "math"

// Tol is the default comparison tolerance. It is far below any physically
// meaningful difference in the simulator (rates, seconds, normalised
// configuration coordinates are all O(1)–O(1e6)) and far above accumulated
// float64 rounding error at those magnitudes.
const Tol = 1e-9

// Eq reports a ≈ b under the default tolerance: absolutely for small values,
// relatively for large ones (so 1e12 and 1e12+1e-6 compare equal, while 0.1
// and 0.2 do not).
func Eq(a, b float64) bool { return EqTol(a, b, Tol) }

// EqTol is Eq with an explicit tolerance.
func EqTol(a, b, tol float64) bool {
	diff := math.Abs(a - b)
	if diff <= tol {
		return true
	}
	return diff <= tol*math.Max(math.Abs(a), math.Abs(b))
}

// Unset reports whether an option field still holds its exact zero value,
// the "zero means use the default" sentinel convention. Unlike Eq it is an
// exact comparison: the sentinel is assigned, never computed, so there is no
// rounding error to tolerate — and a caller deliberately configuring a tiny
// value like 1e-9 must not be mistaken for unset. Centralizing the one legal
// exact float comparison here keeps call sites clean under the floateq
// analyzer and keeps the intent explicit.
func Unset(a float64) bool {
	return a == 0 // exact by design; see doc comment
}
