package rltuner

import (
	"math"
	"testing"

	"nostop/internal/rng"
)

// refQTable is the obviously-correct reference model (the
// internal/sim/property_test.go idiom): a map-based Q store updated with
// the same rule, written with no eye on performance. The real table must
// agree with it exactly — same inputs, same arithmetic, same floats.
type refQTable struct {
	alpha, gamma float64
	actions      int
	q            map[[2]int]float64
}

func (r *refQTable) max(s int) float64 {
	best := math.Inf(-1)
	for a := 0; a < r.actions; a++ {
		if v := r.q[[2]int{s, a}]; v > best {
			best = v
		}
	}
	return best
}

func (r *refQTable) update(s, a int, reward float64, next int) {
	key := [2]int{s, a}
	r.q[key] += r.alpha * (reward + r.gamma*r.max(next) - r.q[key])
}

// TestQTableBoundedProperty drives 10k randomized transitions with bounded
// rewards through the table and checks the invariants: every entry stays
// finite, every entry stays within R/(1-gamma) (the contraction bound for
// zero-initialized Q-learning), and the fast dense table agrees with the
// map-based reference exactly.
func TestQTableBoundedProperty(t *testing.T) {
	const (
		states  = 20
		actions = 13
		alpha   = 0.3
		gamma   = 0.6
		rBound  = 3.0
		steps   = 10000
	)
	seed := rng.New(99).Split("qtable-property")
	table, err := NewQTable(states, actions, alpha, gamma)
	if err != nil {
		t.Fatal(err)
	}
	ref := &refQTable{alpha: alpha, gamma: gamma, actions: actions, q: map[[2]int]float64{}}
	bound := rBound/(1-gamma) + 1e-9

	s := seed.Intn(states)
	for i := 0; i < steps; i++ {
		a := seed.Intn(actions)
		r := seed.Uniform(-rBound, rBound)
		next := seed.Intn(states)
		table.Update(s, a, r, next)
		ref.update(s, a, r, next)
		if v := qValue(table, s, a); math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("step %d: Q(%d,%d)=%v not finite", i, s, a, v)
		}
		if v := math.Abs(qValue(table, s, a)); v > bound {
			t.Fatalf("step %d: |Q(%d,%d)|=%v exceeds contraction bound %v", i, s, a, v, bound)
		}
		if got, want := qValue(table, s, a), ref.q[[2]int{s, a}]; got != want {
			t.Fatalf("step %d: table %v diverged from reference %v", i, got, want)
		}
		s = next
	}
	// Full-table sweep: the invariants hold everywhere, not just on the
	// visited path, and Best/Max agree with the reference.
	for s := 0; s < states; s++ {
		if got, want := table.Max(s), ref.max(s); got != want {
			t.Fatalf("Max(%d)=%v, reference %v", s, got, want)
		}
		best := table.Best(s)
		if qValue(table, s, best) != table.Max(s) {
			t.Fatalf("Best(%d)=%d does not attain Max", s, best)
		}
		for a := 0; a < actions; a++ {
			v := qValue(table, s, a)
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > bound {
				t.Fatalf("Q(%d,%d)=%v violates the bound after %d steps", s, a, v, steps)
			}
		}
	}
}

// TestQTableBestTieBreak pins deterministic greedy selection: with an
// all-zero row, the first action wins.
func TestQTableBestTieBreak(t *testing.T) {
	table, err := NewQTable(2, 5, 0.5, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if got := table.Best(0); got != 0 {
		t.Fatalf("Best on a tied row = %d, want 0", got)
	}
	table.Update(1, 3, 1, 0) // positive reward lifts action 3
	if got := table.Best(1); got != 3 {
		t.Fatalf("Best = %d, want 3", got)
	}
}

func TestQTableValidation(t *testing.T) {
	if _, err := NewQTable(0, 3, 0.5, 0.5); err == nil {
		t.Error("zero states accepted")
	}
	if _, err := NewQTable(3, 0, 0.5, 0.5); err == nil {
		t.Error("zero actions accepted")
	}
	if _, err := NewQTable(3, 3, 0, 0.5); err == nil {
		t.Error("zero alpha accepted")
	}
	if _, err := NewQTable(3, 3, 1.5, 0.5); err == nil {
		t.Error("alpha above 1 accepted")
	}
	if _, err := NewQTable(3, 3, 0.5, 1); err == nil {
		t.Error("gamma of 1 accepted")
	}
	if _, err := NewQTable(3, 3, 0.5, -0.1); err == nil {
		t.Error("negative gamma accepted")
	}
}

// qValue returns Q(s, a).
func qValue(t *QTable, s, a int) float64 { return t.q[s*t.actions+a] }
