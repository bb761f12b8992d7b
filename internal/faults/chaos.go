package faults

import (
	"time"

	"nostop/internal/rng"
	"nostop/internal/sim"
)

// ChaosOptions scale the seeded random fault generator. Zero values take the
// documented defaults.
type ChaosOptions struct {
	// Horizon bounds fault starts; windows are clipped to end by it.
	// Required (must be positive).
	Horizon time.Duration
	// MeanGap is the mean idle gap between one fault lifting and the next
	// starting (exponentially distributed). 0 means Horizon/10.
	MeanGap time.Duration
	// MaxStraggle is the worst straggler slowdown drawn. 0 means 6.
	MaxStraggle float64
	// MaxTaskFail is the worst per-attempt task-failure probability
	// drawn. 0 means 0.5.
	MaxTaskFail float64
	// MaxSpike is the worst ingest multiplier drawn. 0 means 2.5.
	MaxSpike float64
}

// The chaos plan's shape, which no run varies: the first quarter of the
// horizon is fault-free so the system (and an attached optimizer) reaches
// steady state first, and every window lasts one to four minutes.
const (
	chaosMinDuration = time.Minute
	chaosMaxDuration = 4 * time.Minute
	chaosPartitions  = 8 // outages hit partitions 0..7, which every default topic has
)

// chaosNodeIDs are the Table 2 workers, which crashes and stragglers hit.
var chaosNodeIDs = [...]int{2, 3, 4, 5}

func (o ChaosOptions) withDefaults() ChaosOptions {
	if o.MeanGap == 0 {
		o.MeanGap = o.Horizon / 10
	}
	if o.MaxStraggle == 0 {
		o.MaxStraggle = 6
	}
	if o.MaxTaskFail == 0 {
		o.MaxTaskFail = 0.5
	}
	if o.MaxSpike == 0 {
		o.MaxSpike = 2.5
	}
	return o
}

// Chaos generates a sequential random fault plan: windows never overlap, so
// every recovery is observable before the next fault lands, and the plan
// always validates. All randomness comes from the given stream — equal
// seeds yield byte-identical plans.
func Chaos(seed *rng.Stream, opts ChaosOptions) Plan {
	if opts.Horizon <= 0 {
		return nil
	}
	o := opts.withDefaults()
	r := seed.Split("chaos")
	return sequential(r, o.Horizon, o.MeanGap, chaosMinDuration, chaosMaxDuration, func(at sim.Time, dur time.Duration) Fault {
		f := Fault{Kind: Kind(r.Intn(5)), At: at, Duration: dur}
		switch f.Kind {
		case NodeCrash:
			f.NodeID = chaosNodeIDs[r.Intn(len(chaosNodeIDs))]
		case Straggler:
			f.NodeID = chaosNodeIDs[r.Intn(len(chaosNodeIDs))]
			f.Factor = r.Uniform(2, o.MaxStraggle)
		case TaskFailures:
			f.Prob = r.Uniform(0.1, o.MaxTaskFail)
		case PartitionOutage:
			f.Partition = r.Intn(chaosPartitions)
		case IngestSpike:
			f.Factor = r.Uniform(1.3, o.MaxSpike)
		}
		return f
	})
}

// sequential is both generators' window loop. After the horizon's
// fault-free first quarter, each window opens an exponential gap of mean
// meanGap after the previous one lifts and lasts a uniform minDur–maxDur,
// clipped to end by the horizon; the plan ends at the horizon or at a
// clipped window shorter than minDur/2. draw makes each window's fault,
// drawing the rest of it from the same stream r.
func sequential[F any](r *rng.Stream, horizon, meanGap, minDur, maxDur time.Duration, draw func(at sim.Time, dur time.Duration) F) []F {
	var plan []F
	t := sim.Time(horizon / 4)
	for {
		t += sim.Time(r.Exp(meanGap.Seconds()) * float64(time.Second))
		if t >= sim.Time(horizon) {
			return plan
		}
		dur := time.Duration(r.Uniform(minDur.Seconds(), maxDur.Seconds()) * float64(time.Second))
		if end := sim.Time(horizon); t+sim.Time(dur) > end {
			dur = time.Duration(end - t)
			if dur < minDur/2 {
				return plan
			}
		}
		plan = append(plan, draw(t, dur))
		t += sim.Time(dur)
	}
}
