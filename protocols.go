package plurality

import (
	"context"
	"fmt"

	"plurality/internal/baseline"
	"plurality/internal/core/leader"
	"plurality/internal/core/noleader"
	"plurality/internal/core/syncgen"
	"plurality/internal/metrics"
	"plurality/internal/snap"
	"plurality/internal/xrand"
)

// init registers the built-in protocols: the paper's three algorithms and
// the four classical baseline dynamics.
func init() {
	Register(syncProtocol{})
	Register(leaderProtocol{})
	Register(decentralizedProtocol{})
	for _, rule := range baseline.RuleNames() {
		Register(baselineProtocol{rule: rule})
	}
}

// observe bridges the public Observer to the engines' snapshot callback.
func (s *Spec) observe() func(metrics.Point) {
	if s.Observer == nil {
		return nil
	}
	obs := s.Observer
	return func(p metrics.Point) { obs.Observe(publicPoint(p)) }
}

// engineCheckpoint translates the public checkpoint request (and/or a
// resume payload) into the engines' internal form, wiring the capture sink
// so engine payloads come back wrapped as public Snapshots. captured
// receives the snapshot taken during the run, if any; the stored spec has
// its runtime-only fields (Observer, Checkpoint) cleared.
func engineCheckpoint(name string, spec Spec, restore []byte, perturb uint64, captured **Snapshot) *snap.Checkpoint {
	cs := spec.Checkpoint
	if cs.SnapshotAt <= 0 && restore == nil {
		return nil
	}
	ck := &snap.Checkpoint{Restore: restore, Perturb: perturb}
	if cs.SnapshotAt > 0 {
		metaSpec := spec
		metaSpec.Observer = nil
		metaSpec.Checkpoint = CheckpointSpec{}
		ck.At = cs.SnapshotAt
		ck.Halt = cs.Halt
		out := captured
		sink := cs.Sink
		ck.Sink = func(state []byte, at float64, events uint64) {
			sn := &Snapshot{meta: SnapshotMeta{
				FormatVersion: SnapshotFormatVersion,
				Protocol:      name,
				Time:          at,
				Events:        events,
				Spec:          metaSpec,
			}, payload: state}
			*out = sn
			if sink != nil {
				sink(sn)
			}
		}
	}
	return ck
}

// syncProtocol is Algorithm 1: synchronous generations with adaptive or
// theoretical two-choices scheduling.
type syncProtocol struct{}

func (syncProtocol) Info() ProtocolInfo {
	return ProtocolInfo{
		Name:           "sync",
		Family:         "generation",
		TopologyAware:  true,
		Checkpointable: true,
		Description:    "synchronous generation protocol (Algorithm 1)",
	}
}

func (p syncProtocol) Run(ctx context.Context, spec Spec) (*Result, error) {
	return p.run(ctx, spec, nil, 0)
}

// ResumeRun implements Resumer.
func (p syncProtocol) ResumeRun(ctx context.Context, spec Spec, state []byte, perturb uint64) (*Result, error) {
	return p.run(ctx, spec, state, perturb)
}

func (syncProtocol) run(ctx context.Context, spec Spec, restore []byte, perturb uint64) (*Result, error) {
	if spec.Adversary.Kind == AdversaryDelay {
		return nil, fmt.Errorf("plurality: protocol %q is round-based; the delay adversary needs message latency (try crash, drop or byzantine)", "sync")
	}
	assign, err := toInternalAssignment(spec.Assignment, spec.N, spec.K)
	if err != nil {
		return nil, err
	}
	tp, err := spec.Topology.build(spec.N, spec.Seed)
	if err != nil {
		return nil, err
	}
	sched := syncgen.ScheduleAdaptive
	if spec.Sync.TheoreticalSchedule {
		sched = syncgen.ScheduleTheoretical
	}
	var captured *Snapshot
	res, err := syncgen.Run(syncgen.Config{
		N: spec.N, K: spec.K, Alpha: spec.Alpha, Assignment: assign,
		Gamma: spec.Sync.Gamma, Schedule: sched, MaxSteps: spec.MaxSteps,
		Seed: spec.Seed, Eps: spec.Eps, RecordEvery: spec.recordEveryRounds(),
		Topo: tp, Scratch: spec.scratch,
		Adv: spec.Adversary.resolveFor(spec.N, spec.Seed),
		Ctx: ctx, Observe: spec.observe(), DiscardTrajectory: spec.DiscardTrajectory,
		Ckpt: engineCheckpoint("sync", spec, restore, perturb, &captured),
	})
	if err != nil {
		return nil, err
	}
	extra := map[string]float64{
		"generations":       float64(len(res.Generations)),
		"two_choices_steps": float64(len(res.TwoChoicesSteps)),
	}
	spec.Topology.topoStats(tp, extra)
	spec.Adversary.advStats(res.AdvCounters, extra)
	out := convertResult(res.Outcome, res.Trajectory, res.FinalCounts,
		float64(res.Steps), !res.Outcome.FullConsensus, extra)
	out.Snapshot = captured
	return out, nil
}

// leaderProtocol is Algorithms 2 and 3: the asynchronous protocol with a
// designated leader.
type leaderProtocol struct{}

func (leaderProtocol) Info() ProtocolInfo {
	return ProtocolInfo{
		Name:           "leader",
		Family:         "generation",
		Async:          true,
		TopologyAware:  true,
		Checkpointable: true,
		Description:    "asynchronous single-leader protocol (Algorithms 2-3)",
	}
}

func (p leaderProtocol) Run(ctx context.Context, spec Spec) (*Result, error) {
	return p.run(ctx, spec, nil, 0)
}

// ResumeRun implements Resumer.
func (p leaderProtocol) ResumeRun(ctx context.Context, spec Spec, state []byte, perturb uint64) (*Result, error) {
	return p.run(ctx, spec, state, perturb)
}

func (leaderProtocol) run(ctx context.Context, spec Spec, restore []byte, perturb uint64) (*Result, error) {
	assign, err := toInternalAssignment(spec.Assignment, spec.N, spec.K)
	if err != nil {
		return nil, err
	}
	lat, err := spec.Latency.build()
	if err != nil {
		return nil, err
	}
	tp, err := spec.Topology.build(spec.N, spec.Seed)
	if err != nil {
		return nil, err
	}
	var captured *Snapshot
	res, err := leader.Run(leader.Config{
		N: spec.N, K: spec.K, Alpha: spec.Alpha, Assignment: assign,
		Latency: lat, Topo: tp, Scratch: spec.scratch, MaxTime: spec.MaxTime, Seed: spec.Seed,
		Eps: spec.Eps, RecordEvery: spec.RecordEvery,
		Adv: spec.Adversary.resolveFor(spec.N, spec.Seed),
		Ctx: ctx, Observe: spec.observe(), DiscardTrajectory: spec.DiscardTrajectory,
		Ckpt: engineCheckpoint("leader", spec, restore, perturb, &captured),
	})
	if err != nil {
		return nil, err
	}
	extra := map[string]float64{
		"c1":     res.C1,
		"events": float64(res.Events),
		"gstar":  float64(res.GStar),
		"phases": float64(len(res.PhaseLog)),
	}
	spec.Topology.topoStats(tp, extra)
	spec.Adversary.advStats(res.AdvCounters, extra)
	out := convertResult(res.Outcome, res.Trajectory, res.FinalCounts,
		res.EndTime, res.TimedOut, extra)
	out.Snapshot = captured
	return out, nil
}

// decentralizedProtocol is Algorithms 4 and 5: clustering (§4.1) followed
// by consensus coordinated by the cluster leaders.
type decentralizedProtocol struct{}

func (decentralizedProtocol) Info() ProtocolInfo {
	return ProtocolInfo{
		Name:           "decentralized",
		Family:         "generation",
		Async:          true,
		TopologyAware:  true,
		Checkpointable: true,
		Description:    "fully decentralized protocol: clustering + consensus (Algorithms 4-5)",
	}
}

func (p decentralizedProtocol) Run(ctx context.Context, spec Spec) (*Result, error) {
	return p.run(ctx, spec, nil, 0)
}

// ResumeRun implements Resumer. The snapshot embeds the finished
// clustering, so the resumed run skips formation entirely.
func (p decentralizedProtocol) ResumeRun(ctx context.Context, spec Spec, state []byte, perturb uint64) (*Result, error) {
	return p.run(ctx, spec, state, perturb)
}

func (decentralizedProtocol) run(ctx context.Context, spec Spec, restore []byte, perturb uint64) (*Result, error) {
	assign, err := toInternalAssignment(spec.Assignment, spec.N, spec.K)
	if err != nil {
		return nil, err
	}
	lat, err := spec.Latency.build()
	if err != nil {
		return nil, err
	}
	tp, err := spec.Topology.build(spec.N, spec.Seed)
	if err != nil {
		return nil, err
	}
	var captured *Snapshot
	c := noleader.Config{
		N: spec.N, K: spec.K, Alpha: spec.Alpha, Assignment: assign,
		Latency: lat, Topo: tp, Scratch: spec.scratch, MaxTime: spec.MaxTime, Seed: spec.Seed,
		Eps: spec.Eps, RecordEvery: spec.RecordEvery,
		Adv: spec.Adversary.resolveFor(spec.N, spec.Seed),
		Ctx: ctx, Observe: spec.observe(), DiscardTrajectory: spec.DiscardTrajectory,
		Ckpt: engineCheckpoint("decentralized", spec, restore, perturb, &captured),
	}
	c.Cluster.TargetSize = spec.Async.ClusterTargetSize
	res, err := noleader.Run(c)
	if err != nil {
		return nil, err
	}
	extra := map[string]float64{
		"c1":                 res.C1,
		"events":             float64(res.Events),
		"gstar":              float64(res.GStar),
		"clustering_time":    res.ClusteringTime,
		"participating_frac": res.Clustering.ParticipatingFrac(),
		"leaders":            float64(len(res.Clustering.ParticipatingLeaders())),
	}
	spec.Topology.topoStats(tp, extra)
	spec.Adversary.advStats(res.AdvCounters, extra)
	out := convertResult(res.Outcome, res.Trajectory, res.FinalCounts,
		res.EndTime, res.TimedOut, extra)
	out.Snapshot = captured
	return out, nil
}

// baselineProtocol wraps one classical dynamics rule from the paper's
// related-work section.
type baselineProtocol struct {
	rule string
}

func (p baselineProtocol) Info() ProtocolInfo {
	return ProtocolInfo{
		Name:           p.rule,
		Family:         "baseline",
		TopologyAware:  true,
		Checkpointable: true,
		Description:    "classical " + p.rule + " dynamics (§1.1 related work)",
	}
}

func (p baselineProtocol) Run(ctx context.Context, spec Spec) (*Result, error) {
	return p.run(ctx, spec, nil, 0)
}

// ResumeRun implements Resumer.
func (p baselineProtocol) ResumeRun(ctx context.Context, spec Spec, state []byte, perturb uint64) (*Result, error) {
	return p.run(ctx, spec, state, perturb)
}

func (p baselineProtocol) run(ctx context.Context, spec Spec, restore []byte, perturb uint64) (*Result, error) {
	if spec.Adversary.Kind == AdversaryDelay {
		return nil, fmt.Errorf("plurality: protocol %q is round-based; the delay adversary needs message latency (try crash, drop or byzantine)", p.rule)
	}
	assign, err := toInternalAssignment(spec.Assignment, spec.N, spec.K)
	if err != nil {
		return nil, err
	}
	r, err := baseline.NewRule(p.rule, xrand.New(spec.Seed).SplitNamed("rule"))
	if err != nil {
		return nil, err
	}
	tp, err := spec.Topology.build(spec.N, spec.Seed)
	if err != nil {
		return nil, err
	}
	var captured *Snapshot
	bcfg := baseline.Config{
		N: spec.N, K: spec.K, Alpha: spec.Alpha, Assignment: assign,
		MaxRounds: spec.MaxSteps, Seed: spec.Seed, Eps: spec.Eps,
		RecordEvery: spec.recordEveryRounds(), Topo: tp, Scratch: spec.scratch,
		Adv: spec.Adversary.resolveFor(spec.N, spec.Seed),
		Ctx: ctx, Observe: spec.observe(), DiscardTrajectory: spec.DiscardTrajectory,
		Ckpt: engineCheckpoint(p.rule, spec, restore, perturb, &captured),
	}
	var res *baseline.Result
	if spec.Baseline.Sequential {
		res, err = baseline.RunSequential(r, bcfg)
	} else {
		res, err = baseline.RunSync(r, bcfg)
	}
	if err != nil {
		return nil, err
	}
	extra := map[string]float64{"rounds": float64(res.Rounds)}
	spec.Topology.topoStats(tp, extra)
	spec.Adversary.advStats(res.AdvCounters, extra)
	out := convertResult(res.Outcome, res.Trajectory, res.FinalCounts,
		float64(res.Rounds), !res.Outcome.FullConsensus, extra)
	out.Snapshot = captured
	return out, nil
}
