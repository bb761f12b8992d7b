package faults

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"nostop/internal/metrics"
	"nostop/internal/rng"
	"nostop/internal/sim"
	"nostop/internal/tracing"
)

// fakeTarget records every chaos call with its timestamp and can be told to
// reject operations on unknown peers.
type fakeTarget struct {
	clock *sim.Clock
	peers map[string]bool
	ops   []string
}

func newFakeTarget(clock *sim.Clock, peers ...string) *fakeTarget {
	t := &fakeTarget{clock: clock, peers: map[string]bool{}}
	for _, p := range peers {
		t.peers[p] = true
	}
	return t
}

func (t *fakeTarget) op(format string, args ...any) {
	t.ops = append(t.ops, fmt.Sprintf("%v %s", t.clock.Now(), fmt.Sprintf(format, args...)))
}

func (t *fakeTarget) KillPeer(name string) error {
	if !t.peers[name] {
		return fmt.Errorf("no such peer %q", name)
	}
	t.op("kill %s", name)
	return nil
}

func (t *fakeTarget) RestartPeer(name string) error {
	if !t.peers[name] {
		return fmt.Errorf("no such peer %q", name)
	}
	t.op("restart %s", name)
	return nil
}

func (t *fakeTarget) SetLinkFault(from, to string, refuse bool, dropProb float64, delay time.Duration) error {
	t.op("fault %s->%s refuse=%v drop=%.2f delay=%v", from, to, refuse, dropProb, delay)
	return nil
}

func (t *fakeTarget) ClearLinkFault(from, to string) error {
	t.op("clear %s->%s", from, to)
	return nil
}

func TestProcPlanValidate(t *testing.T) {
	cases := []struct {
		name string
		plan ProcPlan
		ok   bool
	}{
		{"empty", nil, true},
		{"good mix", ProcPlan{
			{Kind: PeerKill, At: sim.Time(sec(10)), Duration: 30 * time.Second, Peer: "broker"},
			{Kind: LinkRefuse, At: sim.Time(sec(10)), Duration: 30 * time.Second, From: "controller", To: "engine"},
			{Kind: LinkDrop, At: sim.Time(sec(60)), Duration: 30 * time.Second, From: "engine", To: "broker", Prob: 0.5},
			{Kind: LinkDelay, At: sim.Time(sec(120)), Duration: 30 * time.Second, From: "engine", To: "broker", Delay: 100 * time.Millisecond},
		}, true},
		{"zero duration", ProcPlan{{Kind: PeerKill, Peer: "broker"}}, false},
		{"nameless peer", ProcPlan{{Kind: PeerKill, Duration: time.Minute}}, false},
		{"self link", ProcPlan{{Kind: LinkRefuse, Duration: time.Minute, From: "a", To: "a"}}, false},
		{"bad drop prob", ProcPlan{{Kind: LinkDrop, Duration: time.Minute, From: "a", To: "b", Prob: 1.5}}, false},
		{"missing delay", ProcPlan{{Kind: LinkDelay, Duration: time.Minute, From: "a", To: "b"}}, false},
		{"same-peer kill overlap", ProcPlan{
			{Kind: PeerKill, At: sim.Time(sec(10)), Duration: time.Minute, Peer: "broker"},
			{Kind: PeerKill, At: sim.Time(sec(30)), Duration: time.Minute, Peer: "broker"},
		}, false},
		// A link carries one fault descriptor, so even different-kind link
		// faults on the same directed link conflict.
		{"cross-kind same-link overlap", ProcPlan{
			{Kind: LinkRefuse, At: sim.Time(sec(10)), Duration: time.Minute, From: "a", To: "b"},
			{Kind: LinkDrop, At: sim.Time(sec(30)), Duration: time.Minute, From: "a", To: "b", Prob: 0.5},
		}, false},
		{"opposite directions may overlap", ProcPlan{
			{Kind: LinkRefuse, At: sim.Time(sec(10)), Duration: time.Minute, From: "a", To: "b"},
			{Kind: LinkRefuse, At: sim.Time(sec(30)), Duration: time.Minute, From: "b", To: "a"},
		}, true},
		{"kill and link on same peer may overlap", ProcPlan{
			{Kind: PeerKill, At: sim.Time(sec(10)), Duration: time.Minute, Peer: "broker"},
			{Kind: LinkDrop, At: sim.Time(sec(30)), Duration: time.Minute, From: "engine", To: "broker", Prob: 0.5},
		}, true},
		// Half-open windows: one ending exactly when the next starts is
		// back-to-back, not overlapping.
		{"touching windows", ProcPlan{
			{Kind: PeerKill, At: sim.Time(sec(10)), Duration: 20 * time.Second, Peer: "broker"},
			{Kind: PeerKill, At: sim.Time(sec(30)), Duration: 20 * time.Second, Peer: "broker"},
		}, true},
	}
	for _, tc := range cases {
		if err := tc.plan.Validate(); (err == nil) != tc.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}

func TestProcInjectorDrivesTarget(t *testing.T) {
	clock := sim.NewClock()
	target := newFakeTarget(clock, "broker", "engine", "controller")
	plan := ProcPlan{
		{Kind: PeerKill, At: sim.Time(sec(10)), Duration: 20 * time.Second, Peer: "broker"},
		{Kind: LinkDrop, At: sim.Time(sec(40)), Duration: 10 * time.Second, From: "controller", To: "engine", Prob: 0.5},
	}
	inj, err := AttachProc(target, ClockSchedule{Clock: clock}, plan)
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	tr := tracing.New(clock, 1<<10)
	inj.Observe(reg, tr)

	clock.RunUntil(sim.Time(sec(15)))
	if inj.Active() != 1 {
		t.Fatalf("active %d during kill window, want 1", inj.Active())
	}
	clock.RunUntil(sim.Time(sec(60)))
	if inj.Active() != 0 || inj.Injected() != len(plan) {
		t.Fatalf("active=%d injected=%d after plan, want 0/%d", inj.Active(), inj.Injected(), len(plan))
	}
	want := []string{
		"10s kill broker",
		"30s restart broker",
		"40s fault controller->engine refuse=false drop=0.50 delay=0s",
		"50s clear controller->engine",
	}
	if got := strings.Join(target.ops, "\n"); got != strings.Join(want, "\n") {
		t.Fatalf("target ops:\n%s\nwant:\n%s", got, strings.Join(want, "\n"))
	}
	if got := len(inj.Timeline()); got != 2*len(plan) {
		t.Fatalf("timeline has %d entries, want %d", got, 2*len(plan))
	}
	exp := reg.String()
	for _, want := range []string{
		`nostop_proc_faults_injected_total{kind="peer-kill"} 1`,
		`nostop_proc_faults_injected_total{kind="link-drop"} 1`,
		"nostop_proc_faults_active 0",
	} {
		if !strings.Contains(exp, want) {
			t.Errorf("metrics exposition missing %q", want)
		}
	}
	if tr.Len() == 0 {
		t.Fatal("no trace events for applied windows")
	}
}

func TestAttachProcRejectsBadInput(t *testing.T) {
	clock := sim.NewClock()
	target := newFakeTarget(clock, "broker")
	if _, err := AttachProc(nil, ClockSchedule{Clock: clock}, nil); err == nil {
		t.Fatal("nil target accepted")
	}
	if _, err := AttachProc(target, nil, nil); err == nil {
		t.Fatal("nil schedule accepted")
	}
	bad := ProcPlan{{Kind: PeerKill, Duration: time.Minute}}
	if _, err := AttachProc(target, ClockSchedule{Clock: clock}, bad); err == nil {
		t.Fatal("invalid plan accepted")
	}
}

func TestProcChaosDeterminism(t *testing.T) {
	opts := ProcChaosOptions{
		Horizon: 10 * time.Minute,
		Peers:   []string{"broker", "engine", "controller"},
	}
	a := ProcChaos(rng.New(9).Split("x"), opts)
	b := ProcChaos(rng.New(9).Split("x"), opts)
	if len(a) == 0 {
		t.Fatal("chaos generated an empty plan over ten minutes")
	}
	if err := a.Validate(); err != nil {
		t.Fatalf("chaos plan invalid: %v", err)
	}
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatal("identical seeds produced different proc chaos plans")
	}
	if fmt.Sprint(a) == fmt.Sprint(ProcChaos(rng.New(10).Split("x"), opts)) {
		t.Fatal("different seeds produced identical proc chaos plans")
	}
	for _, f := range a {
		if f.At < sim.Time(opts.Horizon/4) {
			t.Fatalf("fault %v starts inside the warmup quarter", f)
		}
		if f.End() > sim.Time(opts.Horizon) {
			t.Fatalf("fault %v runs past the horizon", f)
		}
	}
	if ProcChaos(rng.New(9).Split("x"), ProcChaosOptions{Peers: opts.Peers}) != nil {
		t.Fatal("zero horizon should generate no plan")
	}
	if ProcChaos(rng.New(9).Split("x"), ProcChaosOptions{Horizon: time.Hour}) != nil {
		t.Fatal("no peers should generate no plan")
	}
}

// TestProcChaosPlanShape pins the generator's fixed shape over 200 seeds:
// windows last 15–45s unless clipped at the horizon, link drops draw a
// probability in [0.3, 0.9] and link delays a delay in [50ms, 500ms].
func TestProcChaosPlanShape(t *testing.T) {
	const horizon = 10 * time.Minute
	kinds := map[ProcKind]int{}
	for s := uint64(1); s <= 200; s++ {
		plan := ProcChaos(rng.New(s).Split("proc-chaos"), ProcChaosOptions{
			Horizon: horizon,
			Peers:   []string{"broker", "engine", "controller"},
		})
		for _, f := range plan {
			kinds[f.Kind]++
			if f.At < sim.Time(horizon/4) {
				t.Fatalf("seed %d: fault %v starts inside the warmup quarter", s, f)
			}
			clipped := f.End() == sim.Time(horizon)
			if f.Duration > 45*time.Second || (!clipped && f.Duration < 15*time.Second) {
				t.Fatalf("seed %d: fault %v lasts %v", s, f, f.Duration)
			}
			switch f.Kind {
			case LinkDrop:
				if f.Prob < 0.3 || f.Prob > 0.9 {
					t.Fatalf("seed %d: link drop %v draws probability %v", s, f, f.Prob)
				}
			case LinkDelay:
				if f.Delay < 50*time.Millisecond || f.Delay > 500*time.Millisecond {
					t.Fatalf("seed %d: link delay %v draws %v", s, f, f.Delay)
				}
			}
		}
	}
	for _, k := range []ProcKind{PeerKill, LinkRefuse, LinkDrop, LinkDelay} {
		if kinds[k] == 0 {
			t.Fatalf("200 seeds drew no %v window", k)
		}
	}
}

func TestProcChaosSinglePeerKillsOnly(t *testing.T) {
	plan := ProcChaos(rng.New(3).Split("x"), ProcChaosOptions{
		Horizon: 30 * time.Minute,
		Peers:   []string{"broker"},
	})
	if len(plan) == 0 {
		t.Fatal("empty single-peer plan")
	}
	for _, f := range plan {
		if f.Kind != PeerKill {
			t.Fatalf("single-peer plan drew a link fault: %v", f)
		}
	}
}
