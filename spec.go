package plurality

import (
	"fmt"
	"math"

	"plurality/internal/topo"
)

// MaxNodes is the largest supported N. The event kernel addresses nodes and
// event payloads as int32, which is what keeps a queued event at 40 bytes
// and the steady-state scheduling path allocation-free; every configuration
// up to this bound — including the paper's asymptotic regime at n = 10⁶
// and beyond — is accepted by validation.
const MaxNodes = math.MaxInt32 - 1

// MaxOpinions is the largest supported K. The synchronous engine's memory
// model packs a node's (opinion, generation) pair into one 32-bit word —
// opinion in the low 24 bits, generation counter in the high 8 — so one
// node costs 4 bytes and a round's partner gathers touch a single array.
// That layout caps opinions at 2^24; the regime the paper studies
// (k = O(n^(1/2-ε)), and practically k up to ~n^(1/3)) sits far below the
// cap for every N the kernel addresses.
const MaxOpinions = 1 << 24

// Spec is the unified parameter set of every registered protocol. One Spec
// value describes one run regardless of the protocol family; fields a
// protocol does not use are ignored (for example Latency by the synchronous
// protocol). The zero value of every optional field means "use the engine's
// documented default".
type Spec struct {
	// N is the number of nodes (>= 2, at most MaxNodes; the decentralized
	// protocol needs >= 8 for its clustering substrate).
	N int `json:"n"`
	// K is the number of opinions (>= 1, at most MaxOpinions).
	K int `json:"k"`
	// Alpha is the planted initial bias used when Assignment is nil: the
	// assignment is then PlantedBias(N, K, Alpha, Seed-derived). 0 means
	// the unbiased worst case (α = 1); values in (0, 1) are invalid.
	Alpha float64 `json:"alpha,omitempty"`
	// Assignment optionally fixes the initial opinions (length N, values
	// in [0, K)). It is not mutated.
	Assignment []int `json:"assignment,omitempty"`
	// Seed drives all randomness of the run.
	Seed uint64 `json:"seed"`
	// Eps defines ε-convergence reporting; must lie in [0, 1). 0 means
	// the paper's 1/log² n.
	Eps float64 `json:"eps,omitempty"`
	// MaxSteps bounds round-based protocols (sync and the baselines) in
	// synchronous rounds; 0 means an automatic generous horizon.
	MaxSteps int `json:"max_steps,omitempty"`
	// MaxTime bounds the asynchronous protocols in virtual time steps;
	// 0 means an automatic generous horizon.
	MaxTime float64 `json:"max_time,omitempty"`
	// RecordEvery sets the snapshot interval: rounds for round-based
	// protocols (rounded to an integer, minimum 1), virtual time steps for
	// asynchronous ones. 0 means the protocol default (1 round, or one
	// snapshot per time unit).
	RecordEvery float64 `json:"record_every,omitempty"`
	// Latency describes the channel-establishment distribution T2 of the
	// asynchronous protocols. The zero value is the paper's Exp(1).
	Latency LatencySpec `json:"latency,omitzero"`
	// Topology selects the interaction graph nodes sample partners from.
	// The zero value is the complete graph — the paper's model — and is
	// guaranteed to reproduce pre-topology results byte-identically for
	// the same seed. See TopologySpec for the other kinds.
	Topology TopologySpec `json:"topology,omitzero"`
	// Adversary selects the fault model the run faces. The zero value is
	// the honest model — the only one the paper's theorems cover — and is
	// guaranteed to reproduce pre-adversary results byte-identically for
	// the same seed. See AdversarySpec for the kinds; the round-based
	// protocols reject the delay kind (no message latency to stretch).
	Adversary AdversarySpec `json:"adversary,omitzero"`
	// Observer, when non-nil, receives every trajectory snapshot as it is
	// recorded — the streaming alternative to Result.Trajectory. Under
	// RunMany or Sweep the same Observer serves concurrent runs and must
	// be safe for concurrent use. Runtime-only: it is not serialized into
	// checkpoint metadata (re-attach one via ResumeOptions.Observer).
	Observer Observer `json:"-"`
	// DiscardTrajectory leaves Result.Trajectory empty so recording costs
	// O(1) memory instead of O(steps); the outcome (winner, hitting
	// times) is evaluated incrementally and is unaffected. Combine with
	// Observer to consume snapshots without accumulating them.
	DiscardTrajectory bool `json:"discard_trajectory,omitempty"`
	// Checkpoint requests a mid-run state snapshot (see CheckpointSpec);
	// the zero value disables it. Snapshots capture the complete simulator
	// state and resume bit-exactly through Resume. Only checkpointable
	// protocols accept it (ProtocolInfo.Checkpointable; all built-ins are).
	Checkpoint CheckpointSpec `json:"checkpoint,omitzero"`
	// Sync holds the synchronous protocol's knobs.
	Sync SyncOptions `json:"sync,omitzero"`
	// Async holds the asynchronous protocols' knobs.
	Async AsyncOptions `json:"async,omitzero"`
	// Baseline holds the baseline dynamics' knobs.
	Baseline BaselineOptions `json:"baseline,omitzero"`

	// scratch carries per-worker reusable sampling buffers into the
	// engines. Runtime-only and internal: RunBatch and Sweep set it so the
	// replications a worker executes share batch buffers instead of
	// reallocating them; buffer contents never influence results, keeping
	// the batch layer's worker-count invariance intact.
	scratch *topo.Scratch
	// graph is the sampler validation built for Topology, handed to the
	// built-in prologue so a run builds its graph once. Runtime-only and
	// internal: Run and Resume set it on their local copy, and only for
	// built-in protocols, so a Spec carrying a graph never reaches caller
	// code, where a changed Seed, N or Topology would leave it stale.
	graph topo.Sampler
}

// SyncOptions are the knobs specific to the synchronous protocol ("sync").
type SyncOptions struct {
	// Gamma is the generation-density threshold γ ∈ (0, 1); 0 means 0.5.
	Gamma float64 `json:"gamma,omitempty"`
	// TheoreticalSchedule selects the paper's predefined two-choices
	// times {t_i} instead of the adaptive density trigger.
	TheoreticalSchedule bool `json:"theoretical_schedule,omitempty"`
}

// AsyncOptions are the knobs specific to the asynchronous protocols
// ("leader", "decentralized").
type AsyncOptions struct {
	// ClusterTargetSize overrides the decentralized protocol's cluster
	// size knob; 0 means automatic. Ignored by "leader".
	ClusterTargetSize int `json:"cluster_target_size,omitempty"`
}

// BaselineOptions are the knobs specific to the baseline dynamics.
type BaselineOptions struct {
	// Sequential uses the population-protocol scheduler (one interaction
	// at a time, time in parallel rounds) instead of synchronous rounds.
	Sequential bool `json:"sequential,omitempty"`
}

// Observer consumes trajectory snapshots as a run records them. Observe is
// called synchronously from the run in time order; an expensive Observe
// slows the run down.
type Observer interface {
	Observe(TrajectoryPoint)
}

// ObserverFunc adapts a function to the Observer interface.
type ObserverFunc func(TrajectoryPoint)

// Observe calls f(p).
func (f ObserverFunc) Observe(p TrajectoryPoint) { f(p) }

// validate centralizes the input checks shared by every protocol,
// including the random graph kinds' draw. Engine packages keep their own
// protocol-specific constraints (e.g. the decentralized protocol's N >= 8)
// on top of these.
func (s *Spec) validate() error {
	_, err := s.check(nil, true)
	return err
}

// check is validate that also returns the topology sampler it checked, so
// the run can use it instead of building the graph again. A non-nil tp is a
// sampler already built from this spec (an in-memory snapshot's graph) and
// is returned as is. With draw false, check is the structural part alone:
// the topology is checked by TopologySpec.check, no random graph is drawn
// and the returned sampler is nil. A spec that passes it fails full
// validation only if its random graph's draw fails.
func (s *Spec) check(tp topo.Sampler, draw bool) (topo.Sampler, error) {
	if s.N < 2 {
		return nil, fmt.Errorf("plurality: need N >= 2, got %d", s.N)
	}
	if s.N > MaxNodes {
		return nil, fmt.Errorf("plurality: N %d exceeds MaxNodes %d (the kernel addresses nodes as int32)", s.N, MaxNodes)
	}
	if s.K < 1 {
		return nil, fmt.Errorf("plurality: need K >= 1, got %d", s.K)
	}
	if s.K > MaxOpinions {
		return nil, fmt.Errorf("plurality: K %d exceeds MaxOpinions %d (opinions pack into 24 bits of the per-node state word)", s.K, MaxOpinions)
	}
	if s.Assignment == nil {
		if math.IsNaN(s.Alpha) || math.IsInf(s.Alpha, 0) || (s.Alpha != 0 && s.Alpha < 1) {
			return nil, fmt.Errorf("plurality: planted bias Alpha %v must be finite and >= 1 (or 0 for the unbiased default)", s.Alpha)
		}
	} else {
		if len(s.Assignment) != s.N {
			return nil, fmt.Errorf("plurality: assignment length %d != N %d", len(s.Assignment), s.N)
		}
		for i, v := range s.Assignment {
			if v < 0 || v >= s.K {
				return nil, fmt.Errorf("plurality: assignment[%d] = %d outside [0, %d)", i, v, s.K)
			}
		}
	}
	if s.Eps < 0 || s.Eps >= 1 || math.IsNaN(s.Eps) {
		return nil, fmt.Errorf("plurality: Eps %v outside [0, 1)", s.Eps)
	}
	if s.MaxSteps < 0 {
		return nil, fmt.Errorf("plurality: negative MaxSteps %d", s.MaxSteps)
	}
	if s.MaxTime < 0 || math.IsNaN(s.MaxTime) || math.IsInf(s.MaxTime, 0) {
		return nil, fmt.Errorf("plurality: invalid MaxTime %v", s.MaxTime)
	}
	if s.RecordEvery < 0 || math.IsNaN(s.RecordEvery) || math.IsInf(s.RecordEvery, 0) {
		return nil, fmt.Errorf("plurality: invalid RecordEvery %v", s.RecordEvery)
	}
	if _, err := s.Latency.build(); err != nil {
		return nil, err
	}
	// Topology constraints (grid dims divide N, rings fit, random graphs
	// connected) are checked by constructing the sampler the run will use,
	// so a bad graph fails here, before any replication starts. Without
	// draw, everything but the random graphs' connectivity is checked.
	switch {
	case tp != nil:
	case draw:
		var err error
		if tp, err = s.Topology.build(s.N, s.Seed); err != nil {
			return nil, err
		}
	default:
		if err := s.Topology.check(s.N); err != nil {
			return nil, err
		}
	}
	if err := s.Adversary.validate(); err != nil {
		return nil, err
	}
	if at := s.Checkpoint.SnapshotAt; at < 0 || math.IsNaN(at) || math.IsInf(at, 0) {
		return nil, fmt.Errorf("plurality: invalid Checkpoint.SnapshotAt %v", at)
	}
	if ev := s.Checkpoint.Every; ev < 0 || math.IsNaN(ev) || math.IsInf(ev, 0) {
		return nil, fmt.Errorf("plurality: invalid Checkpoint.Every %v", ev)
	}
	if g := s.Sync.Gamma; g != 0 && (g <= 0 || g >= 1 || math.IsNaN(g)) {
		return nil, fmt.Errorf("plurality: Sync.Gamma %v outside (0, 1)", g)
	}
	if s.Async.ClusterTargetSize < 0 {
		return nil, fmt.Errorf("plurality: negative Async.ClusterTargetSize %d", s.Async.ClusterTargetSize)
	}
	return tp, nil
}

// recordEveryRounds converts the continuous RecordEvery knob to the
// round-based engines' integer interval: 0 keeps the engine default and
// positive values round to the nearest round, minimum 1.
func (s *Spec) recordEveryRounds() int {
	if s.RecordEvery <= 0 {
		return 0
	}
	r := int(math.Round(s.RecordEvery))
	if r < 1 {
		r = 1
	}
	return r
}
