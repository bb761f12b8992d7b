// Package service runs the NoStop stack as three separately supervised
// networked components — broker, engine, and controller — speaking
// JSON-over-HTTP, bridging the deterministic simulator to a production-style
// deployment (ROADMAP item 5, the paper's Fig 4 topology).
//
// # Two modes, one code path
//
// The same component implementations run in two modes:
//
//   - Sim mode: all three components share one sim.Clock in one process.
//     The "network" is SimNet — requests are delivered by invoking the
//     peer's http.Handler inline at a virtually-delayed instant, so the
//     full service protocol (fetch/commit offsets, status polling,
//     reconfiguration RPCs, retries, circuit breaking, degradation) executes
//     on the single-threaded event loop. With a fixed seed every run —
//     including every retry schedule and chaos fault — replays
//     byte-identically.
//
//   - Wall mode: each component owns its own virtual clock paced against
//     the wall clock, its own mutex, and a real net/http server on
//     127.0.0.1; peers talk over real TCP connections. Process chaos stops
//     a component's server and discards its state, so peers observe genuine
//     connection refusals and timeouts. This package is the only internal
//     package allowlisted to read the wall clock (see DESIGN.md §5h and
//     internal/analysis.DefaultConfig): the wall reads are confined to
//     Timebase/pacer plumbing, and everything the simulation semantics
//     depend on still flows through sim.Clock.
//
// # Resilience
//
// Every cross-component call goes through Client: per-attempt deadlines,
// bounded exponential backoff with seeded jitter, and a consecutive-failure
// circuit breaker. Degradation is a first-class state: the engine sheds
// ingest load (bounded fetch budget, empty batches) while the broker is
// unreachable, and the controller freezes its last-known-good configuration
// while the engine's listener endpoint is unreachable, re-calibrating its
// SPSA measurements after recovery. Every transition is counted in the
// metrics registry and emitted as a trace instant.
package service

import (
	"errors"
	"fmt"
	"time"

	"nostop/internal/sim"
)

// Peer names: the fixed component identities of the service topology.
const (
	PeerBroker     = "broker"
	PeerEngine     = "engine"
	PeerController = "controller"
)

// Trace process lanes for service-layer events. Engine-internal lanes
// (engine.PidBroker..PidFaults = 1..4) stay untouched; the service layer
// extends the numbering.
const (
	// PidServiceBroker is the broker service process lane.
	PidServiceBroker = 5
	// PidServiceEngine is the engine service process lane.
	PidServiceEngine = 6
	// PidServiceController is the controller service process lane.
	PidServiceController = 7
	// PidSupervisor is the supervisor / process-chaos lane.
	PidSupervisor = 8

	// TidRPC is each service lane's RPC-client thread.
	TidRPC = 1
	// TidDegrade is each service lane's degradation-policy thread.
	TidDegrade = 2
	// TidChaos is the supervisor lane's process-chaos thread.
	TidChaos = 1
)

// RPC error classes surfaced by the resilient client.
var (
	// ErrTimeout is an attempt that exceeded its deadline.
	ErrTimeout = errors.New("service: rpc deadline exceeded")
	// ErrRefused is a connection refused by a down peer (or an injected
	// refusal fault).
	ErrRefused = errors.New("service: connection refused")
	// ErrCircuitOpen is a call rejected locally because the peer's circuit
	// breaker is open.
	ErrCircuitOpen = errors.New("service: circuit open")
)

// LinkFault is a network-level fault injected at the RPC layer on one
// directed link. The zero value is a healthy link.
type LinkFault struct {
	// Refuse makes every request fail immediately (connection refused).
	Refuse bool
	// DropProb silently drops requests with this probability; the caller
	// observes a deadline timeout.
	DropProb float64
	// Delay is added to every exchange's latency.
	Delay time.Duration
}

// Faulty reports whether the link carries any injected fault.
func (f LinkFault) Faulty() bool { return f.Refuse || f.DropProb > 0 || f.Delay > 0 }

// String implements fmt.Stringer.
func (f LinkFault) String() string {
	if !f.Faulty() {
		return "healthy"
	}
	return fmt.Sprintf("refuse=%v drop=%.2f delay=%v", f.Refuse, f.DropProb, f.Delay)
}

// InvariantSnapshot is one component's self-reported safety state, served at
// GET /invariants and aggregated by the supervisor at the end of a soak.
type InvariantSnapshot struct {
	Role string `json:"role"`
	// Epoch counts incarnations: 0 for the first start, +1 per restart.
	Epoch int `json:"epoch"`
	// VirtualSec is the component clock's current virtual time.
	VirtualSec float64 `json:"virtualSec"`

	// Broker fields.
	HeadOffset      int64 `json:"headOffset,omitempty"`
	ServedOffset    int64 `json:"servedOffset,omitempty"`
	CommittedOffset int64 `json:"committedOffset,omitempty"`
	ConsumerRewinds int64 `json:"consumerRewinds,omitempty"`

	// Engine fields.
	FetchedRecords int64 `json:"fetchedRecords,omitempty"`
	// LostRecords counts offsets the broker skipped past the engine's next
	// expected offset — records lost beyond the committed watermark. The
	// soak invariant requires zero.
	LostRecords int64 `json:"lostRecords,omitempty"`
	// Redelivered counts offsets re-served after a broker or engine
	// restart (at-least-once duplicates, never losses).
	Redelivered    int64 `json:"redelivered,omitempty"`
	QueueLen       int   `json:"queueLen,omitempty"`
	CommittedLag   int64 `json:"committedLag,omitempty"`
	FailedRecords  int64 `json:"failedRecords,omitempty"`
	ListenerPanics int   `json:"listenerPanics,omitempty"`
	Batches        int   `json:"batches,omitempty"`
	Degraded       bool  `json:"degraded,omitempty"`
	// DegradedEnters/Exits count shed-mode transitions (engine) or freeze
	// transitions (controller).
	DegradedEnters int64 `json:"degradedEnters,omitempty"`
	DegradedExits  int64 `json:"degradedExits,omitempty"`

	// Controller fields.
	Frozen              bool   `json:"frozen,omitempty"`
	SuppressedReconfigs int64  `json:"suppressedReconfigs,omitempty"`
	Recalibrations      int    `json:"recalibrations,omitempty"`
	Iterations          int    `json:"iterations,omitempty"`
	ListenerPanicCount  int64  `json:"callbackPanics,omitempty"`
	Phase               string `json:"phase,omitempty"`
}

// Violations evaluates the end-of-soak invariants over the components'
// snapshots and returns one message per violation (empty means a clean run).
// queueBound is the maximum tolerated engine batch-queue length; chaosRan
// tightens the check set to also require observed recovery.
func Violations(snaps []InvariantSnapshot, queueBound int, chaosRan bool) []string {
	var out []string
	for _, s := range snaps {
		switch s.Role {
		case PeerEngine:
			if s.LostRecords > 0 {
				out = append(out, fmt.Sprintf("engine: %d records lost past committed offsets", s.LostRecords))
			}
			if s.QueueLen > queueBound {
				out = append(out, fmt.Sprintf("engine: batch queue %d exceeds bound %d (unbounded growth)", s.QueueLen, queueBound))
			}
			if s.ListenerPanics > 0 {
				out = append(out, fmt.Sprintf("engine: %d listener panics", s.ListenerPanics))
			}
			if s.FailedRecords > 0 {
				out = append(out, fmt.Sprintf("engine: %d records in permanently-failed batches", s.FailedRecords))
			}
			if s.Degraded && chaosRan {
				out = append(out, "engine: still degraded at soak end (no recovery)")
			}
		case PeerController:
			if s.ListenerPanicCount > 0 {
				out = append(out, fmt.Sprintf("controller: %d callback panics", s.ListenerPanicCount))
			}
			if s.Frozen && chaosRan {
				out = append(out, "controller: still frozen at soak end (no recovery)")
			}
		case PeerBroker:
			if s.CommittedOffset > s.HeadOffset {
				out = append(out, fmt.Sprintf("broker: committed %d beyond head %d", s.CommittedOffset, s.HeadOffset))
			}
		}
	}
	return out
}

// secs converts a virtual instant to float seconds (for JSON snapshots).
func secs(t sim.Time) float64 { return time.Duration(t).Seconds() }
