package rltuner

import "fmt"

// QTable is a dense tabular action-value store with the standard one-step
// Q-learning update. It is deliberately free of any engine dependency so
// the property suite can drive it against randomized transition streams and
// check its invariants in isolation.
//
// With zero initialization, a learning rate in (0, 1], a discount in
// [0, 1), and rewards bounded by R, every entry stays within
// R / (1 - gamma) forever: the update is a convex combination of the old
// value and r + gamma*max Q, and that bound is a fixed point of the
// combination. TestQTableBounded pins this over 10k randomized steps.
type QTable struct {
	actions int
	alpha   float64
	gamma   float64
	q       []float64 // row-major states x actions
}

// NewQTable builds a zero-initialized table. alpha must be in (0, 1] and
// gamma in [0, 1) — gamma = 1 would let values diverge under cyclic
// visitation.
func NewQTable(states, actions int, alpha, gamma float64) (*QTable, error) {
	if states < 1 || actions < 1 {
		return nil, fmt.Errorf("rltuner: table shape %dx%d must be positive", states, actions)
	}
	if !(alpha > 0) || alpha > 1 {
		return nil, fmt.Errorf("rltuner: alpha %v outside (0, 1]", alpha)
	}
	if gamma < 0 || !(gamma < 1) {
		return nil, fmt.Errorf("rltuner: gamma %v outside [0, 1)", gamma)
	}
	return &QTable{
		actions: actions,
		alpha:   alpha,
		gamma:   gamma,
		q:       make([]float64, states*actions),
	}, nil
}

// Actions returns the action-space size.
func (t *QTable) Actions() int { return t.actions }

// Max returns max_a Q(s, a) — the bootstrap target's value estimate.
func (t *QTable) Max(s int) float64 {
	row := t.q[s*t.actions : (s+1)*t.actions]
	best := row[0]
	for _, v := range row[1:] {
		if v > best {
			best = v
		}
	}
	return best
}

// Best returns argmax_a Q(s, a), breaking ties toward the lowest action
// index so greedy selection is deterministic.
func (t *QTable) Best(s int) int {
	row := t.q[s*t.actions : (s+1)*t.actions]
	best, bestV := 0, row[0]
	for a, v := range row[1:] {
		if v > bestV {
			best, bestV = a+1, v
		}
	}
	return best
}

// Update applies the Q-learning rule for the transition (s, a) -> next with
// reward r:
//
//	Q(s,a) += alpha * (r + gamma*max_a' Q(next,a') - Q(s,a))
func (t *QTable) Update(s, a int, r float64, next int) {
	i := s*t.actions + a
	t.q[i] += t.alpha * (r + t.gamma*t.Max(next) - t.q[i])
}
