package engine

import (
	"fmt"
	"math"
	"reflect"
	"testing"
	"time"

	"nostop/internal/broker"
	"nostop/internal/cluster"
	"nostop/internal/metrics"
	"nostop/internal/ratetrace"
	"nostop/internal/rng"
	"nostop/internal/sim"
	"nostop/internal/workload"
)

// The producer ticker's settle sends a run's counted records with one
// SendCount. TestRunSendsMatchTickSends builds each case twice from one
// seed: one twin advanced by RunUntil, whose in-place runs of ticks send
// once, and one advanced by Step, where every tick is a run of its own and
// sends as each tick did before runs were settled. After the events of
// every instant that fired anything but a tick, and at the horizon, both
// twins must show other handlers the same broker and metrics state.

// appendCounter forwards the topic's notifications to the engine's
// observer and counts its produce calls.
type appendCounter struct {
	*obsState
	appends int
}

func (a *appendCounter) OnAppend(topic string, n int64) {
	a.appends++
	a.obsState.OnAppend(topic, n)
}

// payloadRecorder is the engine's workload, keeping a copy of every payload
// record a batch hands it.
type payloadRecorder struct {
	workload.Workload
	seen []broker.Record
}

func (p *payloadRecorder) ProcessBatch(recs []broker.Record) workload.Result {
	p.seen = append(p.seen, recs...)
	return p.Workload.ProcessBatch(recs)
}

// engineState is what any handler but the tick can read of one engine.
type engineState struct {
	Ends                        []int64
	TotalEnd, Lag, CommittedLag int64
	ProducedBits, DroppedBits   uint64
	Payloads                    []broker.Record // processed so far; with payloads only
}

type settleSnap struct {
	At       sim.Time
	Executed uint64
	Engines  []engineState
	sends    []int // produce calls so far, per engine; differs by design
}

type settleCase struct {
	name     string
	tenants  int // 0: one engine on a private bus; else engines on one bus
	payloads int
	script   func(c *sim.Clock, es []*Engine)
	check    func(t *testing.T, es []*Engine) // the case's fault did happen
	inPlace  bool                             // runs of ticks must fire in place
}

// settleTwin is one build of a case.
type settleTwin struct {
	clock *sim.Clock
	engs  []*Engine
	obs   []*appendCounter
}

func newSettleTwin(t *testing.T, tc settleCase) *settleTwin {
	tw := &settleTwin{clock: sim.NewClock()}
	n := tc.tenants
	var bus *broker.Bus
	if n > 0 {
		var ids []int
		for _, node := range cluster.Table2().Nodes() {
			ids = append(ids, node.ID)
		}
		var err error
		if bus, err = broker.NewBus(ids); err != nil {
			t.Fatal(err)
		}
	} else {
		n = 1
	}
	root := rng.New(11)
	for i := 0; i < n; i++ {
		wl := &payloadRecorder{Workload: workload.NewWordCount()}
		lo, hi := wl.RateBand()
		s := root.Split(fmt.Sprint("engine-", i))
		opts := Options{
			Workload:        wl,
			Trace:           ratetrace.NewUniformBand(lo, hi, 5*time.Second, s.Split("trace")),
			Seed:            s.Split("engine"),
			Initial:         Config{BatchInterval: 5 * time.Second, Executors: 8},
			Metrics:         metrics.NewRegistry(),
			PayloadsPerTick: tc.payloads,
		}
		if bus != nil {
			opts.Bus, opts.Tenant, opts.TopicName = bus, fmt.Sprint("tenant-", i), fmt.Sprint("in-", i)
		}
		e, err := New(tw.clock, opts)
		if err != nil {
			t.Fatal(err)
		}
		ac := &appendCounter{obsState: e.obs}
		e.topic.SetObserver(ac)
		if err := e.Start(); err != nil {
			t.Fatal(err)
		}
		tw.engs, tw.obs = append(tw.engs, e), append(tw.obs, ac)
	}
	tc.script(tw.clock, tw.engs)
	tw.clock.At(settleHorizon, func() {})
	return tw
}

// snap reads the twin's state and checks what holds on either twin: every
// record the ticks counted reached the topic, and the produced counter
// agrees with the topic.
func (tw *settleTwin) snap(t *testing.T) settleSnap {
	s := settleSnap{At: tw.clock.Now(), Executed: tw.clock.Executed()}
	for i, e := range tw.engs {
		st := engineState{
			TotalEnd:     e.topic.TotalEnd(),
			Lag:          e.Lag(),
			CommittedLag: e.CommittedLag(),
			ProducedBits: math.Float64bits(e.obs.recordsProduced.Value()),
			DroppedBits:  math.Float64bits(e.obs.recordsDropped.Value()),
		}
		sum := int64(0)
		for _, p := range e.topic.Partitions {
			st.Ends = append(st.Ends, p.End())
			sum += p.End()
		}
		if e.opts.PayloadsPerTick > 0 {
			st.Payloads = append([]broker.Record(nil), e.wl.(*payloadRecorder).seen...)
		}
		if st.TotalEnd != e.totalRecords || sum != st.TotalEnd {
			t.Fatalf("engine %d at %v: topic holds %d records (partitions %d), ticks counted %d",
				i, s.At, st.TotalEnd, sum, e.totalRecords)
		}
		if v := e.obs.recordsProduced.Value(); v != float64(st.TotalEnd) {
			t.Fatalf("engine %d at %v: produced counter %v, topic holds %d", i, s.At, v, st.TotalEnd)
		}
		s.Engines = append(s.Engines, st)
		s.sends = append(s.sends, tw.obs[i].appends)
	}
	return s
}

// stepThrough advances the twin by Step past horizon and returns its state
// after the events of every instant up to horizon that fired anything but a
// tick. Each twin has a no-op event at horizon, so the last is the state at
// the horizon.
func (tw *settleTwin) stepThrough(t *testing.T, horizon sim.Time) []settleSnap {
	var checks []settleSnap
	var pre settleSnap
	instant, mark := tw.clock.Now(), false
	before := make([]sim.Time, len(tw.engs))
	for {
		if mark {
			pre = tw.snap(t)
		}
		for i, e := range tw.engs {
			before[i] = e.lastTickAt
		}
		ok := tw.clock.Step()
		if now := tw.clock.Now(); !ok || now != instant {
			if mark {
				checks = append(checks, pre)
			}
			if !ok || now > horizon {
				return checks
			}
			instant, mark = now, false
		}
		tick := false
		for i, e := range tw.engs {
			tick = tick || e.lastTickAt != before[i]
		}
		mark = mark || !tick
	}
}

func compareSnaps(t *testing.T, where string, got, want settleSnap) {
	t.Helper()
	if got.At != want.At || got.Executed != want.Executed || !reflect.DeepEqual(got.Engines, want.Engines) {
		t.Fatalf("%s: RunUntil twin\n%+v\nStep twin\n%+v", where, got, want)
	}
}

func settleCases() []settleCase {
	at := func(c *sim.Clock, s float64, fn func()) { c.At(sim.Time(sec(s)), fn) }
	return []settleCase{
		{name: "ingest-cap", inPlace: true,
			script: func(c *sim.Clock, es []*Engine) {
				at(c, 30.05, func() { es[0].SetIngestCap(400) })
				at(c, 150.03, func() { es[0].SetIngestCap(0) })
			},
			check: func(t *testing.T, es []*Engine) {
				if es[0].DroppedByCap() == 0 {
					t.Fatal("the cap never bound")
				}
			}},
		{name: "shed", inPlace: true,
			script: func(c *sim.Clock, es []*Engine) {
				at(c, 40, func() { es[0].SetTaskMaxFailures(1); es[0].SetTaskFailureRate(1) })
				at(c, 90, func() { es[0].SetTaskFailureRate(0) })
			},
			check: func(t *testing.T, es []*Engine) {
				if es[0].ShedEvents() == 0 || es[0].DroppedByCap() == 0 {
					t.Fatalf("%d shed windows dropped %d records, want some of both", es[0].ShedEvents(), es[0].DroppedByCap())
				}
			}},
		{name: "partition-outage", inPlace: true,
			script: func(c *sim.Clock, es []*Engine) {
				at(c, 50.02, func() { _ = es[0].FailPartition(3) })
				at(c, 120.07, func() { _ = es[0].RestorePartition(3) })
			},
			check: func(t *testing.T, es []*Engine) {
				if es[0].Redelivered() == 0 {
					t.Fatal("the outage redelivered nothing")
				}
			}},
		{name: "stop", inPlace: true,
			script: func(c *sim.Clock, es []*Engine) {
				at(c, 200.05, func() { es[0].Stop() })
			},
			check: func(t *testing.T, es []*Engine) {
				if got, want := es[0].lastTickAt, sim.Time(sec(200)); got != want {
					t.Fatalf("last tick at %v, want %v", got, want)
				}
			}},
		{name: "payloads", payloads: 3,
			script: func(c *sim.Clock, es []*Engine) {
				at(c, 30.05, func() { es[0].SetIngestCap(400) })
				at(c, 150.03, func() { es[0].SetIngestCap(0) })
			},
			check: func(t *testing.T, es []*Engine) {
				if es[0].DroppedByCap() == 0 {
					t.Fatal("the cap never bound")
				}
				if len(es[0].wl.(*payloadRecorder).seen) == 0 {
					t.Fatal("no batch processed a payload")
				}
			}},
		{name: "tenants", tenants: 2,
			script: func(c *sim.Clock, es []*Engine) {
				at(c, 30.05, func() { es[1].SetIngestCap(400) })
			},
			check: func(t *testing.T, es []*Engine) {
				if es[1].DroppedByCap() == 0 {
					t.Fatal("the cap never bound")
				}
			}},
	}
}

// settleHorizon is where TestRunSendsMatchTickSends stops.
const settleHorizon = sim.Time(5 * time.Minute)

// TestRunSendsMatchTickSends holds one send per run of producer ticks to
// one send per tick.
func TestRunSendsMatchTickSends(t *testing.T) {
	for _, tc := range settleCases() {
		t.Run(tc.name, func(t *testing.T) {
			stepped, run := newSettleTwin(t, tc), newSettleTwin(t, tc)
			checks := stepped.stepThrough(t, settleHorizon)
			if len(checks) < 60 || checks[len(checks)-1].At != settleHorizon {
				t.Fatalf("%d instants fired a non-tick event, the last not at the horizon", len(checks))
			}
			var got settleSnap
			for _, want := range checks {
				run.clock.RunUntil(want.At)
				got = run.snap(t)
				compareSnaps(t, fmt.Sprintf("after the events at %v", want.At), got, want)
			}
			for i := range run.engs {
				if !reflect.DeepEqual(run.engs[i].History(), stepped.engs[i].History()) {
					t.Fatalf("engine %d: batch histories differ", i)
				}
				r, s := got.sends[i], checks[len(checks)-1].sends[i]
				switch {
				case tc.inPlace && r*4 > s:
					t.Fatalf("engine %d: %d sends under RunUntil against %d under Step, want under a quarter", i, r, s)
				case tc.tenants > 0 && r != s:
					t.Fatalf("engine %d: %d sends under RunUntil against %d under Step; ticks sharing a lane fire nothing in place", i, r, s)
				}
			}
			tc.check(t, run.engs)
		})
	}
}
