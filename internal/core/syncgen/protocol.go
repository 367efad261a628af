package syncgen

import (
	"context"
	"errors"
	"fmt"

	"plurality/internal/adversary"
	"plurality/internal/metrics"
	"plurality/internal/opinion"
	"plurality/internal/snap"
	"plurality/internal/topo"
	"plurality/internal/xrand"
)

// Config parametrizes one synchronous run. N and K are required; every
// other field has a documented default applied by Run.
type Config struct {
	// N is the number of nodes (>= 2).
	N int
	// K is the number of opinions (>= 1, at most 2^24: the packed node
	// word keeps the color in its low 24 bits). Above 512 opinions the
	// engine switches to sparse per-generation tallies, which keep k up to
	// about n^(1/3) practical.
	K int
	// Alpha is the initial multiplicative bias used when Assignment is nil;
	// the assignment is then opinion.PlantedBias(N, K, Alpha). Ignored when
	// Assignment is set.
	Alpha float64
	// Assignment optionally fixes the initial opinions (length N). Run does
	// not mutate it.
	Assignment []opinion.Opinion
	// Gamma is the generation-density threshold γ ∈ (0, 1); default 0.5,
	// the value §2.2 reports to work well empirically.
	Gamma float64
	// Schedule picks the two-choices trigger; default ScheduleAdaptive.
	Schedule ScheduleKind
	// GStar caps the number of generations; default GenerationBudget(N, α̂)
	// + 2, where α̂ is the measured initial bias. The two extra generations
	// are the Lemma 11 tail: at laptop-scale n the generation that first
	// pushes the bias past n is born with a few dissenting stragglers with
	// noticeable probability, and only further squarings remove them.
	// At most 255 (the packed node word keeps the generation in its high
	// byte); the default budget is O(log log n) and never comes close.
	GStar int
	// MaxSteps aborts a run that fails to converge; default
	// 64·(t_{G*} + PropagationTail).
	MaxSteps int
	// Seed drives all randomness of the run.
	Seed uint64
	// RecordEvery sets the snapshot interval in steps; default 1.
	RecordEvery int
	// Topo is the interaction graph partners are sampled from; nil means
	// the complete graph on N nodes (the paper's model). Its size must
	// equal N.
	Topo topo.Sampler
	// Eps defines ε-convergence for the reported outcome; default 1/log² n.
	Eps float64
	// Ctx cancels or bounds the run; checked once per synchronous step.
	// nil means never cancelled.
	Ctx context.Context
	// Observe, when non-nil, receives every recorded snapshot as it
	// happens.
	Observe func(metrics.Point)
	// DiscardTrajectory leaves Result.Trajectory empty, keeping O(1)
	// recording memory; the Outcome is evaluated incrementally instead.
	DiscardTrajectory bool
	// Adv configures the shared adversary layer (crash/churn, drop,
	// Byzantine lying; see internal/adversary). The zero value disables it.
	// The delay kind is rejected: a round-based engine has no message
	// latency to stretch. Crash times and churn gaps are measured in rounds.
	Adv adversary.Config
	// Ckpt requests a state capture at the first completed step >= Ckpt.At
	// (then every Ckpt.Every steps after it, if set) and/or resumes from one; nil disables checkpointing. See
	// snap.Checkpoint for the semantics shared by every engine.
	Ckpt *snap.Checkpoint
	// Scratch optionally supplies reusable batch-sampling buffers; nil
	// allocates run-local ones. The public batch layer passes one per
	// worker so replications sharing a worker share buffers.
	Scratch *topo.Scratch
}

// GenEvent records the birth and establishment of one generation, the raw
// material of the bias-squaring experiment (E8) and the growth experiment
// (E9).
type GenEvent struct {
	// Gen is the generation index (>= 1).
	Gen int
	// BirthStep is the first step at which the generation was non-empty.
	BirthStep int
	// BirthFrac is its node fraction right after birth.
	BirthFrac float64
	// BirthBias is the color bias inside the generation right after birth.
	BirthBias float64
	// EstablishedStep is the first step at which the generation held at
	// least a γ fraction of nodes (-1 if never).
	EstablishedStep int
	// EstablishedBias is the in-generation bias at that step (0 if never).
	EstablishedBias float64
}

// Result captures everything the experiments need from one run.
type Result struct {
	// Outcome summarizes correctness and hitting times (times are steps).
	Outcome metrics.Outcome
	// Trajectory holds the recorded snapshots.
	Trajectory metrics.Trajectory
	// Steps is the number of synchronous steps executed.
	Steps int
	// TwoChoicesSteps lists the steps at which two-choices was enabled.
	TwoChoicesSteps []int
	// Generations holds one event record per born generation.
	Generations []GenEvent
	// FinalCounts are the survivors' opinion counts at termination.
	FinalCounts opinion.Counts
	// InitialPlurality is the opinion that was initially dominant.
	InitialPlurality opinion.Opinion
	// AdvCounters tallies the adversary's actions (zero for honest runs).
	AdvCounters adversary.Counters
}

// Run executes Algorithm 1 under cfg and returns the run record. It returns
// an error for invalid configurations; stochastic failure to converge is not
// an error but reported through the Outcome.
func Run(cfg Config) (*Result, error) {
	if cfg.N < 2 {
		return nil, fmt.Errorf("syncgen: need N >= 2, got %d", cfg.N)
	}
	if cfg.K < 1 {
		return nil, fmt.Errorf("syncgen: need K >= 1, got %d", cfg.K)
	}
	if cfg.K > maxPackedOpinions {
		return nil, fmt.Errorf("syncgen: K %d exceeds %d (the packed node word holds the color in 24 bits)", cfg.K, maxPackedOpinions)
	}
	if cfg.Assignment != nil && len(cfg.Assignment) != cfg.N {
		return nil, fmt.Errorf("syncgen: assignment length %d != N %d", len(cfg.Assignment), cfg.N)
	}
	if cfg.Gamma == 0 {
		cfg.Gamma = 0.5
	}
	if cfg.Gamma <= 0 || cfg.Gamma >= 1 {
		return nil, fmt.Errorf("syncgen: gamma %v outside (0,1)", cfg.Gamma)
	}
	if cfg.Schedule == 0 {
		cfg.Schedule = ScheduleAdaptive
	}
	if cfg.Schedule != ScheduleTheoretical && cfg.Schedule != ScheduleAdaptive {
		return nil, errors.New("syncgen: unknown schedule kind")
	}
	if cfg.RecordEvery <= 0 {
		cfg.RecordEvery = 1
	}
	tp, err := topo.OrComplete(cfg.Topo, cfg.N)
	if err != nil {
		return nil, fmt.Errorf("syncgen: %w", err)
	}
	cfg.Topo = tp

	rng := xrand.New(cfg.Seed)
	cols, initCounts, plurality := opinion.Initial(cfg.N, cfg.K, cfg.Assignment, cfg.Alpha, rng)
	alphaHat := initCounts.Bias()

	gStar := cfg.GStar
	if gStar <= 0 {
		gStar = GenerationBudget(cfg.N, alphaHat) + 2
	}
	if gStar > maxPackedGen {
		return nil, fmt.Errorf("syncgen: G* %d exceeds %d (the packed node word holds the generation in 8 bits; the default budget O(log log n) never comes close)", gStar, maxPackedGen)
	}
	var schedule []int
	if cfg.Schedule == ScheduleTheoretical {
		schedule = TwoChoicesTimes(alphaHat, cfg.K, gStar, cfg.Gamma)
	}
	maxSteps := cfg.MaxSteps
	if maxSteps <= 0 {
		horizon := PropagationTail(cfg.N, cfg.Gamma)
		if cfg.Schedule == ScheduleTheoretical && len(schedule) > 0 {
			horizon += schedule[len(schedule)-1]
		} else {
			for i := 1; i <= gStar; i++ {
				horizon += int(LifeCycleLength(alphaHat, cfg.K, cfg.Gamma, i)) + 1
			}
		}
		maxSteps = 64 * (horizon + 1)
	}
	eps := cfg.Eps
	if eps <= 0 {
		l2 := log2f(float64(cfg.N))
		eps = 1 / (l2 * l2)
	}

	st := newState(cols, cfg.K, gStar, cfg.Scratch)
	if st.adv, err = adversary.Start(cfg.Adv, cfg.N, initCounts, false); err != nil {
		return nil, fmt.Errorf("syncgen: %w", err)
	}
	st.crash = adversary.Crashes{Alive: cfg.N}
	if st.adv != nil {
		st.crash = adversary.NewCrashes(cfg.N)
		st.frozen, st.surv = make(opinion.Counts, cfg.K), make(opinion.Counts, cfg.K)
	}
	bs := topo.Batch(cfg.Topo)
	res := &Result{InitialPlurality: plurality}
	rec := metrics.NewRecorder(eps, cfg.DiscardTrajectory, cfg.Observe)
	record := func(step int) {
		p := metrics.SnapshotCounts(float64(step), st.counts(), st.crash.Alive, plurality)
		p.MaxGen = st.tally.maxGen
		p.MaxGenFrac = float64(st.tally.genSize[st.tally.maxGen]) / float64(cfg.N)
		rec.Append(p)
	}
	stepRNG := rng.SplitNamed("steps")
	nextTheoretical := 0
	startStep := 1
	if ck := cfg.Ckpt; ck.Restoring() {
		step, nt, err := st.restore(ck.Restore, stepRNG, rec, res, ck.Perturb)
		if err != nil {
			return nil, err
		}
		nextTheoretical = nt
		startStep = step + 1
	} else {
		record(0)
	}
	due := cfg.Ckpt.Due()
	for step := startStep; step <= maxSteps; step++ {
		if cfg.Ctx != nil {
			select {
			case <-cfg.Ctx.Done():
				return nil, cfg.Ctx.Err()
			default:
			}
		}
		twoChoices := false
		switch cfg.Schedule {
		case ScheduleTheoretical:
			if nextTheoretical < len(schedule) && step == schedule[nextTheoretical] {
				twoChoices = true
				nextTheoretical++
			}
		case ScheduleAdaptive:
			if st.tally.maxGen < gStar &&
				float64(st.tally.genSize[st.tally.maxGen]) >= cfg.Gamma*float64(cfg.N) {
				twoChoices = true
			}
		}
		if twoChoices {
			res.TwoChoicesSteps = append(res.TwoChoicesSteps, step)
		}
		if st.adv != nil {
			st.crash.Apply(st.adv, float64(step), st.noteCrash)
		}
		st.step(stepRNG, bs, twoChoices)
		st.noteGenerations(step, cfg.Gamma, res)
		done := st.counts().Unanimous(st.crash.Alive)
		if step%cfg.RecordEvery == 0 || done {
			record(step)
		}
		res.Steps = step
		if ck := cfg.Ckpt; !done && float64(step) >= due {
			ck.Sink(st.capture(step, nextTheoretical, stepRNG, rec, res), float64(step), 0)
			if ck.Halt {
				break
			}
			due = ck.Next(float64(step))
		}
		if done {
			break
		}
	}

	// The survivors' counts, copied: the state is about to go out of
	// scope, but the Result outlives it.
	res.FinalCounts = append(opinion.Counts(nil), st.counts()...)
	res.Trajectory = rec.Trajectory()
	res.Outcome = rec.Outcome(res.FinalCounts, st.crash.Alive, plurality)
	if st.adv != nil {
		res.AdvCounters = st.adv.Counters
	}
	return res, nil
}
