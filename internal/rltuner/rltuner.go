// Package rltuner implements a tabular Q-learning configuration tuner over
// the discretized widened config space — the reinforcement-learning peer of
// the paper's SPSA controller, after "Auto-tuning Distributed Stream
// Processing Systems using Reinforcement Learning" (Vaquero & Cuadrado).
//
// The agent observes a coarse system state (delay-to-interval ratio bucket
// x queue-depth bucket), acts by moving one axis of the config lattice one
// step up or down (or holding), and receives an episodic reward from the
// failure-aware objective: the negative of the paper's Eq. 3 cost of the
// measurement window, scaled and clipped so rewards are bounded (which in
// turn bounds the Q-table — see QTable).
//
// Determinism contract: exploration draws come from a dedicated rng.Stream
// in a fixed call order, greedy selection breaks ties by lowest action
// index, and measurement windows are driven purely by batch-completion
// callbacks. Same seed, same engine history, same decisions. Failure
// awareness mirrors the §5.4 controller: fault-window and
// first-after-reconfigure batches never enter a measurement window, and the
// tuner holds (defers reconfiguration) while a fault is in effect.
package rltuner

import (
	"errors"
	"fmt"
	"math"

	"nostop/internal/core"
	"nostop/internal/engine"
	"nostop/internal/rng"
	"nostop/internal/stats"
)

// state-space geometry: delay-ratio buckets x queue buckets.
const (
	delayBuckets = 5
	queueBuckets = 4
	numStates    = delayBuckets * queueBuckets
)

// Options configure the tuner. Zero values mean defaults.
type Options struct {
	// Space is the configuration lattice to explore. Zero: the canonical
	// widened space over the engine's bounds and the workload's peak
	// nominal rate. The space is intersected with the engine's bounds at
	// construction, so every proposed point is admissible.
	Space core.ConfigSpace
	// Seed drives epsilon-greedy exploration. Nil: rng.New(11).
	Seed *rng.Stream
}

// Tuner constants no caller varies. Exploration starts at epsilon and
// decays multiplicatively by epsilonDecay per decision down to epsilonMin.
const (
	measureBatches = 3    // clean batches per decision
	alpha          = 0.3  // Q-learning rate
	gamma          = 0.6  // discount factor
	epsilon        = 0.25 // initial exploration probability
	epsilonDecay   = 0.99
	epsilonMin     = 0.02
	rho            = 2.0  // Eq. 3's delay-overrun weight (the paper's value)
	rewardScale    = 30.0 // seconds: a window costing one default batch interval scores about -1
	drainThreshold = 10   // queue depth that triggers a jump to the safest lattice point (the §5.4 controller's value)
)

// Tuner is the attached Q-learning controller.
type Tuner struct {
	eng   core.Host
	space core.ConfigSpace
	vals  [][]float64 // per-axis lattice values
	idx   []int       // current lattice coordinate
	table *QTable
	seed  *rng.Stream
	eps   float64

	state  int // state of the pending decision; -1 before the first window
	action int
	acc    []float64 // total delay (proc + sched) of clean window batches

	attached bool
	steps    int // completed Q updates
	applied  int // configuration changes requested
	drains   int // emergency safe-point jumps
}

// New builds a tuner for eng. The options' space (or the default widened
// space) is intersected with the engine's bounds and validated.
func New(eng core.Host, opts Options) (*Tuner, error) {
	seed := opts.Seed
	if seed == nil {
		seed = rng.New(11)
	}
	space := opts.Space
	if len(space.Axes) == 0 {
		_, peak := eng.Workload().RateBand()
		space = core.WidenedSpace(eng.ConfigBounds(), peak)
	}
	space = space.Intersect(eng.ConfigBounds())
	if err := space.Validate(); err != nil {
		return nil, err
	}
	table, err := NewQTable(numStates, 2*len(space.Axes)+1, alpha, gamma)
	if err != nil {
		return nil, err
	}
	t := &Tuner{
		eng:    eng,
		space:  space,
		vals:   space.Lattice(),
		table:  table,
		seed:   seed.Split("rl"),
		eps:    epsilon,
		state:  -1,
		action: -1,
	}
	t.idx = t.initialCoord()
	return t, nil
}

// initialCoord snaps the engine's live configuration onto the lattice: the
// nearest value per axis, except an unset ingest cap (0 = uncapped), which
// maps to the top of its axis — the least-throttling lattice point.
func (t *Tuner) initialCoord() []int {
	cur := core.FullConfig{
		BatchInterval: t.eng.Config().BatchInterval,
		Executors:     t.eng.Config().Executors,
		BlockInterval: t.eng.Config().BlockInterval,
		IngestCap:     t.eng.IngestCap(),
		RetryBudget:   t.eng.TaskMaxFailures(),
		SpecThreshold: t.eng.SpeculativeMultiplier(),
	}
	x := t.space.Norm(cur)
	idx := make([]int, len(t.space.Axes))
	for i, a := range t.space.Axes {
		n := len(t.vals[i])
		if a.Param == core.ParamIngestCap && !(cur.IngestCap > 0) {
			idx[i] = n - 1
			continue
		}
		j := int(math.Round(x[i] * float64(n-1)))
		if j < 0 {
			j = 0
		}
		if j >= n {
			j = n - 1
		}
		idx[i] = j
	}
	return idx
}

// Attach registers the batch listener and aligns the engine onto the
// initial lattice point.
func (t *Tuner) Attach() error {
	if t.attached {
		return errors.New("rltuner: already attached")
	}
	t.attached = true
	t.eng.AddListener(engine.ListenerFunc(t.onBatch))
	return t.apply()
}

// apply pushes the current lattice coordinate onto the engine.
func (t *Tuner) apply() error {
	t.applied++
	if err := t.space.Apply(t.eng, t.space.At(t.vals, t.idx)); err != nil {
		return fmt.Errorf("rltuner: applying %v: %v", t.idx, err)
	}
	return nil
}

// stateOf buckets the observed delay ratio and queue depth.
func (t *Tuner) stateOf(ratio float64, queue int) int {
	var d int
	switch {
	case ratio < 0.8:
		d = 0
	case ratio < 1.0:
		d = 1
	case ratio < 1.5:
		d = 2
	case ratio < 3.0:
		d = 3
	default:
		d = 4
	}
	var q int
	switch {
	case queue <= 0:
		q = 0
	case queue <= 3:
		q = 1
	case queue <= 10:
		q = 2
	default:
		q = 3
	}
	return d*queueBuckets + q
}

// onBatch is the engine callback: failure-aware admission, measurement
// accumulation, reward, and the next epsilon-greedy move.
func (t *Tuner) onBatch(bs engine.BatchStats) {
	// §5.4 admission: batches overlapping a fault window or the first
	// batch after a reconfiguration never enter a measurement window.
	if bs.FaultActive || bs.FirstAfterReconfig {
		return
	}
	queue := t.eng.QueueLen()
	if queue > drainThreshold && !t.eng.FaultInEffect() {
		t.drain(queue)
		return
	}
	t.acc = append(t.acc, bs.ProcessingTime.Seconds()+bs.SchedulingDelay.Seconds())
	if len(t.acc) < measureBatches {
		return
	}
	interval := bs.Config.BatchInterval.Seconds()
	measured := stats.Mean(t.acc)
	reward := t.reward(interval, measured)
	next := t.stateOf(measured/interval, queue)
	if t.state >= 0 {
		t.table.Update(t.state, t.action, reward, next)
		t.steps++
	}
	t.acc = t.acc[:0]
	if t.eng.FaultInEffect() {
		// A fault window opened mid-callback chain: bank the update but
		// hold the configuration until the system is clean again.
		t.state = -1
		return
	}
	t.decide(next)
}

// reward maps the window's Eq. 3 cost to a bounded reward in [-3, 0].
func (t *Tuner) reward(interval, measured float64) float64 {
	y := interval + rho*math.Max(0, measured-interval)
	r := -y / rewardScale
	if r < -3 {
		r = -3
	}
	if r > 0 {
		r = 0
	}
	return r
}

// decide picks the next action epsilon-greedily and applies it.
func (t *Tuner) decide(state int) {
	var a int
	if t.seed.Float64() < t.eps {
		a = t.seed.Intn(t.table.Actions())
	} else {
		a = t.table.Best(state)
	}
	t.state, t.action = state, a
	if t.eps > epsilonMin {
		t.eps *= epsilonDecay
		if t.eps < epsilonMin {
			t.eps = epsilonMin
		}
	}
	if a == 0 {
		return // hold: keep the current point, no reconfiguration
	}
	axis := (a - 1) / 2
	dir := 1
	if (a-1)%2 == 0 {
		dir = -1
	}
	j := t.idx[axis] + dir
	if j < 0 {
		j = 0
	}
	if j >= len(t.vals[axis]) {
		j = len(t.vals[axis]) - 1
	}
	if j == t.idx[axis] {
		return // move clamped at the lattice edge: nothing to apply
	}
	t.idx[axis] = j
	_ = t.apply()
}

// drain is the emergency episode: the live action (if any) is punished with
// the worst reward, and the system jumps to the safest lattice point — max
// batch interval, max executors — to shed the backlog. Mirrors §5.4's
// drain but through the lattice, so the bounds contract still holds.
func (t *Tuner) drain(queue int) {
	if t.state >= 0 {
		t.table.Update(t.state, t.action, -3, t.stateOf(4, queue))
		t.steps++
	}
	t.state = -1
	t.acc = t.acc[:0]
	t.drains++
	changed := false
	for i, a := range t.space.Axes {
		if a.Param == core.ParamBatchInterval || a.Param == core.ParamExecutors {
			if j := len(t.vals[i]) - 1; t.idx[i] != j {
				t.idx[i] = j
				changed = true
			}
		}
	}
	if changed {
		_ = t.apply()
	}
}

// Space returns the (intersected) space the tuner explores.
func (t *Tuner) Space() core.ConfigSpace { return t.space }

// Table exposes the Q-table for inspection and tests.
func (t *Tuner) Table() *QTable { return t.table }

// Steps returns completed Q-learning updates.
func (t *Tuner) Steps() int { return t.steps }

// ConfigureSteps returns configuration changes requested.
func (t *Tuner) ConfigureSteps() int { return t.applied }

// Drains returns emergency safe-point episodes.
func (t *Tuner) Drains() int { return t.drains }

// Epsilon returns the current exploration probability.
func (t *Tuner) Epsilon() float64 { return t.eps }
