package plurality

import (
	"context"
	"fmt"

	"plurality/internal/adversary"
	"plurality/internal/baseline"
	"plurality/internal/core/leader"
	"plurality/internal/core/noleader"
	"plurality/internal/core/syncgen"
	"plurality/internal/metrics"
	"plurality/internal/opinion"
	"plurality/internal/sim"
	"plurality/internal/snap"
	"plurality/internal/topo"
	"plurality/internal/xrand"
)

// init registers the built-in protocols: the paper's three algorithms and
// the four classical baseline dynamics.
func init() {
	Register(builtin{info: ProtocolInfo{Name: "sync", Family: "generation",
		Description: "synchronous generation protocol (Algorithm 1)"}, engine: runSync})
	Register(builtin{info: ProtocolInfo{Name: "leader", Family: "generation", Async: true,
		Description: "asynchronous single-leader protocol (Algorithms 2-3)"}, engine: runLeader})
	Register(builtin{info: ProtocolInfo{Name: "decentralized", Family: "generation", Async: true,
		Description: "fully decentralized protocol: clustering + consensus (Algorithms 4-5)"},
		engine: runDecentralized})
	for _, rule := range baseline.RuleNames() {
		Register(builtin{info: ProtocolInfo{Name: rule, Family: "baseline",
			Description: "classical " + rule + " dynamics (§1.1 related work)"},
			engine: func(ctx context.Context, spec Spec, in engineInput) (*engineRun, error) {
				return runBaseline(ctx, rule, spec, in)
			}})
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
// receives the last snapshot taken during the run, if any; the stored spec has
// its runtime-only fields (Observer, Checkpoint, scratch, graph) cleared,
// and the run's sampler tp rides along on the Snapshot in memory only.
func engineCheckpoint(name string, spec Spec, tp topo.Sampler, restore []byte, perturb uint64, captured **Snapshot) *snap.Checkpoint {
	cs := spec.Checkpoint
	if cs.SnapshotAt <= 0 && restore == nil {
		return nil
	}
	ck := &snap.Checkpoint{Restore: restore, Perturb: perturb}
	if cs.SnapshotAt > 0 {
		metaSpec := spec
		metaSpec.Observer = nil
		metaSpec.Checkpoint = CheckpointSpec{}
		metaSpec.scratch = nil
		metaSpec.graph = nil
		ck.At = cs.SnapshotAt
		ck.Halt = cs.Halt
		ck.Every = cs.Every
		out := captured
		sink := cs.Sink
		ck.Sink = func(state []byte, at float64, events uint64) {
			sn := &Snapshot{meta: SnapshotMeta{
				FormatVersion: SnapshotFormatVersion,
				Protocol:      name,
				Time:          at,
				Events:        events,
				Spec:          metaSpec,
			}, payload: state, graph: tp}
			*out = sn
			if sink != nil {
				sink(sn)
			}
		}
	}
	return ck
}

// builtin is a protocol shipped with the package: its listing plus the
// engine call the shared prologue in run feeds. Every built-in protocol is
// topology-aware and checkpointable (it implements Resumer).
type builtin struct {
	info   ProtocolInfo
	engine func(ctx context.Context, spec Spec, in engineInput) (*engineRun, error)
}

// engineInput is what the prologue builds for an engine from the Spec.
type engineInput struct {
	assign []opinion.Opinion
	topo   topo.Sampler
	lat    sim.Latency // nil for round-based protocols
	adv    adversary.Config
	ckpt   *snap.Checkpoint
}

// engineRun is what an engine reports back for the public Result.
type engineRun struct {
	outcome  metrics.Outcome
	traj     metrics.Trajectory
	final    opinion.Counts
	duration float64
	timedOut bool
	counters adversary.Counters
	extra    map[string]float64
}

func (b builtin) Info() ProtocolInfo {
	info := b.info
	info.TopologyAware = true
	info.Checkpointable = true
	return info
}

func (b builtin) Run(ctx context.Context, spec Spec) (*Result, error) {
	return b.run(ctx, spec, nil, 0)
}

// ResumeRun implements Resumer.
func (b builtin) ResumeRun(ctx context.Context, spec Spec, state []byte, perturb uint64) (*Result, error) {
	return b.run(ctx, spec, state, perturb)
}

// run is the prologue and closing step every built-in protocol shares:
// reject what the engine cannot model, convert the assignment, build the
// latency (asynchronous protocols only) and topology, resolve the adversary
// and wire the checkpoint; then run the engine and fold its report into a
// public Result.
func (b builtin) run(ctx context.Context, spec Spec, restore []byte, perturb uint64) (*Result, error) {
	name := b.info.Name
	if spec.Adversary.Kind == AdversaryDelay && !b.info.Async {
		return nil, fmt.Errorf("plurality: protocol %q is round-based; the delay adversary needs message latency (try crash, drop or byzantine)", name)
	}
	assign, err := toInternalAssignment(spec.Assignment, spec.N, spec.K)
	if err != nil {
		return nil, err
	}
	var lat sim.Latency
	if b.info.Async {
		if lat, err = spec.Latency.build(); err != nil {
			return nil, err
		}
	}
	tp := spec.graph
	if tp == nil { // not handed over by Run or Resume, e.g. under RunBatch
		if tp, err = spec.Topology.build(spec.N, spec.Seed); err != nil {
			return nil, err
		}
	}
	var captured *Snapshot
	er, err := b.engine(ctx, spec, engineInput{
		assign: assign, topo: tp, lat: lat,
		adv:  spec.Adversary.resolveFor(spec.N, spec.Seed),
		ckpt: engineCheckpoint(name, spec, tp, restore, perturb, &captured),
	})
	if err != nil {
		return nil, err
	}
	spec.Topology.topoStats(tp, er.extra)
	spec.Adversary.advStats(er.counters, er.extra)
	out := convertResult(er.outcome, er.traj, er.final, er.duration, er.timedOut, er.extra)
	out.Snapshot = captured
	return out, nil
}

// runSync is Algorithm 1: synchronous generations with adaptive or
// theoretical two-choices scheduling.
func runSync(ctx context.Context, spec Spec, in engineInput) (*engineRun, error) {
	sched := syncgen.ScheduleAdaptive
	if spec.Sync.TheoreticalSchedule {
		sched = syncgen.ScheduleTheoretical
	}
	res, err := syncgen.Run(syncgen.Config{
		N: spec.N, K: spec.K, Alpha: spec.Alpha, Assignment: in.assign,
		Gamma: spec.Sync.Gamma, Schedule: sched, MaxSteps: spec.MaxSteps,
		Seed: spec.Seed, Eps: spec.Eps, RecordEvery: spec.recordEveryRounds(),
		Topo: in.topo, Scratch: spec.scratch, Adv: in.adv,
		Ctx: ctx, Observe: spec.observe(), DiscardTrajectory: spec.DiscardTrajectory,
		Ckpt: in.ckpt,
	})
	if err != nil {
		return nil, err
	}
	return &engineRun{res.Outcome, res.Trajectory, res.FinalCounts,
		float64(res.Steps), !res.Outcome.FullConsensus, res.AdvCounters,
		map[string]float64{
			"generations":       float64(len(res.Generations)),
			"two_choices_steps": float64(len(res.TwoChoicesSteps)),
		}}, nil
}

// runLeader is Algorithms 2 and 3: the asynchronous protocol with a
// designated leader.
func runLeader(ctx context.Context, spec Spec, in engineInput) (*engineRun, error) {
	res, err := leader.Run(leader.Config{
		N: spec.N, K: spec.K, Alpha: spec.Alpha, Assignment: in.assign,
		Latency: in.lat, Topo: in.topo, Scratch: spec.scratch, MaxTime: spec.MaxTime, Seed: spec.Seed,
		Eps: spec.Eps, RecordEvery: spec.RecordEvery, Adv: in.adv,
		Ctx: ctx, Observe: spec.observe(), DiscardTrajectory: spec.DiscardTrajectory,
		Ckpt: in.ckpt,
	})
	if err != nil {
		return nil, err
	}
	return &engineRun{res.Outcome, res.Trajectory, res.FinalCounts,
		res.EndTime, res.TimedOut, res.AdvCounters,
		map[string]float64{
			"c1":     res.C1,
			"events": float64(res.Events),
			"gstar":  float64(res.GStar),
			"phases": float64(len(res.PhaseLog)),
		}}, nil
}

// runDecentralized is Algorithms 4 and 5: clustering (§4.1) followed by
// consensus coordinated by the cluster leaders. A resumed run skips
// formation entirely: the snapshot embeds the finished clustering.
func runDecentralized(ctx context.Context, spec Spec, in engineInput) (*engineRun, error) {
	c := noleader.Config{
		N: spec.N, K: spec.K, Alpha: spec.Alpha, Assignment: in.assign,
		Latency: in.lat, Topo: in.topo, Scratch: spec.scratch, MaxTime: spec.MaxTime, Seed: spec.Seed,
		Eps: spec.Eps, RecordEvery: spec.RecordEvery, Adv: in.adv,
		Ctx: ctx, Observe: spec.observe(), DiscardTrajectory: spec.DiscardTrajectory,
		Ckpt: in.ckpt,
	}
	c.Cluster.TargetSize = spec.Async.ClusterTargetSize
	res, err := noleader.Run(c)
	if err != nil {
		return nil, err
	}
	return &engineRun{res.Outcome, res.Trajectory, res.FinalCounts,
		res.EndTime, res.TimedOut, res.AdvCounters,
		map[string]float64{
			"c1":                 res.C1,
			"events":             float64(res.Events),
			"gstar":              float64(res.GStar),
			"clustering_time":    res.ClusteringTime,
			"participating_frac": res.Clustering.ParticipatingFrac(),
			"leaders":            float64(len(res.Clustering.ParticipatingLeaders())),
		}}, nil
}

// runBaseline runs one classical dynamics rule from the paper's
// related-work section.
func runBaseline(ctx context.Context, rule string, spec Spec, in engineInput) (*engineRun, error) {
	r, err := baseline.NewRule(rule, xrand.New(spec.Seed).SplitNamed("rule"))
	if err != nil {
		return nil, err
	}
	bcfg := baseline.Config{
		N: spec.N, K: spec.K, Alpha: spec.Alpha, Assignment: in.assign,
		MaxRounds: spec.MaxSteps, Seed: spec.Seed, Eps: spec.Eps,
		RecordEvery: spec.recordEveryRounds(), Topo: in.topo, Scratch: spec.scratch,
		Adv: in.adv, Ctx: ctx, Observe: spec.observe(), DiscardTrajectory: spec.DiscardTrajectory,
		Ckpt: in.ckpt,
	}
	run := baseline.RunSync
	if spec.Baseline.Sequential {
		run = baseline.RunSequential
	}
	res, err := run(r, bcfg)
	if err != nil {
		return nil, err
	}
	return &engineRun{res.Outcome, res.Trajectory, res.FinalCounts,
		float64(res.Rounds), !res.Outcome.FullConsensus, res.AdvCounters,
		map[string]float64{"rounds": float64(res.Rounds)}}, nil
}
