package baselines

import (
	"errors"
	"math"

	"nostop/internal/core"
	"nostop/internal/engine"
)

// Spark's spark.streaming.backpressure.pid.* defaults: the proportional
// and integral gains and the ingestion floor (records/second). Spark's
// derivative gain is 0, so the estimator has no derivative term.
const (
	bpKp      = 1.0
	bpKi      = 0.2
	bpMinRate = 100
)

// BackPressure reproduces Spark Streaming's PID rate estimator
// (PIDRateEstimator): after every completed batch it re-estimates the rate
// the system can sustain and throttles ingestion to it. Unlike NoStop it
// never touches batch interval or executor count — it defends stability by
// *dropping/deferring input*, which is exactly the behavioural contrast the
// paper draws: back pressure keeps the system alive but sacrifices
// throughput, while NoStop reconfigures so the system can absorb the full
// stream.
type BackPressure struct {
	host core.Host

	latestRate float64
	updates    int
	attached   bool
}

// NewBackPressure builds the controller.
func NewBackPressure(host core.Host) (*BackPressure, error) {
	if host == nil {
		return nil, errors.New("baselines: nil engine")
	}
	return &BackPressure{host: host}, nil
}

// Attach registers the controller with the engine.
func (b *BackPressure) Attach() error {
	if b.attached {
		return errors.New("baselines: already attached")
	}
	b.attached = true
	b.host.AddListener(engine.ListenerFunc(b.onBatch))
	return nil
}

// onBatch is a direct port of PIDRateEstimator.compute: the error is the
// gap between the current ingestion rate and the measured processing rate,
// and the integral term charges the standing backlog (scheduling delay) at
// the processing rate.
func (b *BackPressure) onBatch(bs engine.BatchStats) {
	procSecs := bs.ProcessingTime.Seconds()
	if bs.Records == 0 || procSecs <= 0 {
		return
	}
	processingRate := float64(bs.Records) / procSecs
	if b.latestRate == 0 {
		// Bootstrap from the first observation, as Spark does.
		b.latestRate = float64(bs.Records) / bs.Config.BatchInterval.Seconds()
	}
	err := b.latestRate - processingRate
	histErr := bs.SchedulingDelay.Seconds() * processingRate / bs.Config.BatchInterval.Seconds()
	newRate := math.Max(b.latestRate-bpKp*err-bpKi*histErr, bpMinRate)

	b.latestRate = newRate
	b.updates++
	b.host.SetIngestCap(newRate)
}
