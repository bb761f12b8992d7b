package engine

import "math"

// TickState is the producer tick's state after one tick.
type TickState struct {
	// Arrivals is the key of the tick's rate memo: the tick's arrivals
	// whenever the tick spanned time.
	Arrivals, Rate, FracCarry float64
	Total, Dropped            int64
}

// Tick runs one producer tick at the clock's current time, as a run of its
// own.
func (e *Engine) Tick() TickState {
	e.producerTick()
	e.sendUnsent()
	return TickState{
		Arrivals:  math.Float64frombits(e.rateArr),
		Rate:      e.rate,
		FracCarry: e.fracCarry,
		Total:     e.totalRecords,
		Dropped:   e.droppedByCap,
	}
}
