package noleader

import (
	"fmt"
	"math"

	"plurality/internal/adversary"
	"plurality/internal/cluster"
	"plurality/internal/core/syncgen"
	"plurality/internal/metrics"
	"plurality/internal/opinion"
	"plurality/internal/sim"
	"plurality/internal/snap"
	"plurality/internal/topo"
	"plurality/internal/xrand"
)

// LeaderStateKind is a cluster leader's mode within one generation.
type LeaderStateKind int

const (
	// StateTwoChoices (1) allows two-choices promotions into the leader's
	// newest generation.
	StateTwoChoices LeaderStateKind = 1
	// StateSleeping (2) allows nothing; it absorbs broadcast skew.
	StateSleeping LeaderStateKind = 2
	// StatePropagation (3) allows pull propagation into the newest
	// generation.
	StatePropagation LeaderStateKind = 3
)

// String names the state for logs.
func (s LeaderStateKind) String() string {
	switch s {
	case StateTwoChoices:
		return "two-choices"
	case StateSleeping:
		return "sleeping"
	case StatePropagation:
		return "propagation"
	default:
		return "unknown"
	}
}

// GenPhases records, for one generation, when the fastest and slowest
// leaders entered each state — the six marks t̂₀..t̂₅ of the paper's
// Figure 2.
type GenPhases struct {
	// Gen is the generation index.
	Gen int
	// FirstTwoChoices (t̂₀) and LastTwoChoices (t̂₁) bracket entry into
	// state 1 across leaders; likewise for sleeping (t̂₂, t̂₃) and
	// propagation (t̂₄, t̂₅). A mark is -1 if no leader entered that state.
	FirstTwoChoices, LastTwoChoices   float64
	FirstSleeping, LastSleeping       float64
	FirstPropagation, LastPropagation float64
}

// Result captures one decentralized run.
type Result struct {
	// Outcome summarizes correctness and hitting times of the consensus
	// phase (virtual time, clustering excluded).
	Outcome metrics.Outcome
	// Trajectory holds the consensus-phase snapshots.
	Trajectory metrics.Trajectory
	// Clustering is the structure the consensus phase ran on.
	Clustering *cluster.Clustering
	// PhaseSpans records the Figure 2 marks per generation.
	PhaseSpans []GenPhases
	// EndTime is the consensus-phase virtual time at termination, and
	// ClusteringTime the formation time that preceded it.
	EndTime        float64
	ClusteringTime float64
	// Events is the number of consensus-phase simulator events.
	Events uint64
	// FinalCounts are the opinion counts at termination.
	FinalCounts opinion.Counts
	// InitialPlurality is the opinion that was initially dominant.
	InitialPlurality opinion.Opinion
	// C1 is the steps-per-unit constant used, GStar the generation cap.
	C1    float64
	GStar int
	// TimedOut reports that MaxTime was hit before full consensus.
	TimedOut bool
	// TotalLeaderMessages counts messages reaching any cluster leader, and
	// PeakLeaderLoad the maximum any single leader served per time unit —
	// the §4.5 congestion metric. The decentralized design exists so this
	// stays polylog(n) where the single leader's is Θ(n).
	TotalLeaderMessages uint64
	PeakLeaderLoad      float64
	// AdvCounters tallies the adversary's actions (zero for honest runs).
	AdvCounters adversary.Counters
}

// Run forms clusters and then executes Algorithms 4 and 5 under cfg.
func Run(cfg Config) (*Result, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	root := xrand.New(cfg.Seed)

	// Phase 1: clustering. A restored run decodes the finished clustering
	// from the snapshot instead of replaying formation; the substream draw
	// still happens so the root RNG stays in the same position either way.
	cp := cfg.Cluster
	cp.N = cfg.N
	cp.Latency = cfg.Latency
	cp.Topo = cfg.Topo
	cp.Seed = root.SplitNamed("clustering").Uint64()
	cp.Ctx = cfg.Ctx
	var cl *cluster.Clustering
	var restoreR *snap.Reader
	if cfg.Ckpt.Restoring() {
		restoreR = snap.NewReader(cfg.Ckpt.Restore)
		var err error
		cl, err = cluster.DecodeClustering(restoreR)
		if err != nil {
			return nil, fmt.Errorf("noleader: clustering state: %w", err)
		}
		if cl.N != cfg.N {
			return nil, fmt.Errorf("noleader: %w: clustering for N=%d, run has N=%d", snap.ErrCorrupt, cl.N, cfg.N)
		}
		cl.Topo = cfg.Topo
	} else {
		var err error
		cl, err = cluster.Form(cp)
		if err != nil {
			return nil, err
		}
	}

	// Initial opinions.
	cols := make([]opinion.Opinion, cfg.N)
	if cfg.Assignment != nil {
		copy(cols, cfg.Assignment)
	} else {
		alpha := cfg.Alpha
		if alpha < 1 {
			alpha = 1
		}
		cols = opinion.PlantedBias(cfg.N, cfg.K, alpha, root.SplitNamed("assignment"))
	}
	initCounts := opinion.CountOf(cols, cfg.K)
	pl, _ := initCounts.TopTwo()
	alphaHat := initCounts.Bias()
	gStar := cfg.GStar
	if gStar <= 0 {
		gStar = syncgen.GenerationBudget(cfg.N, alphaHat) + 2
	}
	maxTime := cfg.MaxTime
	if maxTime <= 0 {
		perGen := cfg.C1 * (cfg.TwoChoicesUnits + cfg.SleepUnits +
			math.Log(4.5*float64(cfg.K+1))/math.Log(1.4) + 2)
		maxTime = 6*float64(gStar)*perGen + 20*cfg.C1*math.Log2(float64(cfg.N))
	}

	scratch := cfg.Scratch
	if scratch == nil {
		scratch = &topo.Scratch{}
	}
	rs := &consensusState{
		cfg:       cfg,
		cl:        cl,
		sm:        sim.New(),
		bs:        topo.Batch(cfg.Topo),
		scratch:   scratch,
		smp:       root.SplitNamed("sampling"),
		latR:      root.SplitNamed("latency"),
		cols:      cols,
		gens:      make([]int32, cfg.N),
		finished:  make([]bool, cfg.N),
		locked:    make([]bool, cfg.N),
		tmpGen:    make([]int32, cfg.N),
		tmpState:  make([]int8, cfg.N),
		counts:    initCounts,
		crashed:   make([]bool, cfg.N),
		aliveN:    cfg.N,
		leaderIdx: make([]int32, cfg.N),
		gStar:     gStar,
		plurality: opinion.Opinion(pl),
		phase:     map[int]*GenPhases{},
		res: &Result{
			Clustering:       cl,
			ClusteringTime:   cl.EndTime,
			InitialPlurality: opinion.Opinion(pl),
			C1:               cfg.C1,
			GStar:            gStar,
		},
	}
	for i := range rs.leaderIdx {
		rs.leaderIdx[i] = -1
	}
	participating := cl.ParticipatingLeaders()
	for _, l := range participating {
		li := int32(len(rs.lGen))
		rs.leaderIdx[l] = li
		card := cl.Size[l]
		sleepAt := int32(math.Ceil(cfg.TwoChoicesUnits * cfg.C1 * float64(card)))
		rs.lGen = append(rs.lGen, 1)
		rs.lState = append(rs.lState, int8(StateTwoChoices))
		rs.lCard = append(rs.lCard, int32(card))
		rs.lT = append(rs.lT, 0)
		rs.lGenSize = append(rs.lGenSize, 0)
		rs.lSleepAt = append(rs.lSleepAt, sleepAt)
		rs.lPropAt = append(rs.lPropAt, sleepAt+int32(math.Ceil(cfg.SleepUnits*cfg.C1*float64(card))))
	}
	rs.loadBucket = make([]int32, len(participating))
	rs.loadCount = make([]uint64, len(participating))
	rs.notePhase(1, StateTwoChoices, 0)
	if len(participating) == 0 {
		// Degenerate clustering: report a failed run rather than panic.
		rs.res.TimedOut = true
		rs.res.FinalCounts = initCounts
		rs.res.Outcome = metrics.EvalOutcome(metrics.Trajectory{
			metrics.Snapshot(0, cols, cfg.K, rs.plurality)},
			initCounts, rs.plurality, cfg.Eps)
		return rs.res, nil
	}

	if cfg.Adv.Kind != adversary.None {
		// The adversary draws from a private generator seeded independently
		// of the root stream, so the honest engine streams are untouched.
		adv, err := adversary.New(cfg.Adv, xrand.New(cfg.Adv.Seed))
		if err != nil {
			return nil, fmt.Errorf("noleader: %w", err)
		}
		rs.adv = adv
		rs.payload = &sim.PayloadArena{}
		if _, second := initCounts.TopTwo(); second >= 0 {
			adv.SetLieTarget(int32(second))
		}
		if at := adv.NextCrashAt(); at >= 0 && restoreR == nil {
			rs.sm.Schedule(at, sim.Event{Kind: evCrash})
		}
	}

	rs.maxTime = maxTime
	rs.tickFn = rs.tick
	rs.sm.SetHandler(rs)
	rs.sm.Reserve(3*cfg.N + 64)
	clockR := root.SplitNamed("clocks")
	rs.clocks = sim.NewClocks(rs.sm, clockR, cfg.N, 1, evTick)
	rs.rec = metrics.NewRecorder(cfg.Eps, cfg.DiscardTrajectory, cfg.Observe)
	if restoreR != nil {
		// Deterministic setup above sized every slice; now overwrite all
		// mutable state (event heap included) from the captured payload.
		if err := rs.restore(restoreR, cfg.Ckpt.Perturb); err != nil {
			return nil, err
		}
	} else {
		rs.clocks.StartAll()
		// Periodic recorder + termination watchdog, both typed events so
		// the pending queue stays plain data (see evRecord/evDeadline).
		rs.record()
		rs.sm.ScheduleAfter(cfg.RecordEvery, sim.Event{Kind: evRecord})
		rs.sm.Schedule(maxTime, sim.Event{Kind: evDeadline})
	}

	if err := rs.runSim(cfg.Ctx); err != nil {
		return nil, err
	}

	rs.res.EndTime = rs.sm.Now()
	rs.res.Events = rs.sm.Processed()
	// Fold the still-open time-unit buckets into the running peak.
	for _, c := range rs.loadCount {
		if c > rs.peakLoad {
			rs.peakLoad = c
		}
	}
	rs.res.PeakLeaderLoad = float64(rs.peakLoad)
	rs.res.FinalCounts = opinion.CountOf(rs.cols, cfg.K)
	if last, ok := rs.rec.Last(); !ok || last.Time < rs.res.EndTime {
		rs.record()
	}
	rs.res.Trajectory = rs.rec.Trajectory()
	rs.res.Outcome = rs.rec.Outcome(rs.res.FinalCounts, rs.plurality)
	if rs.adv != nil {
		rs.res.AdvCounters = rs.adv.Counters
	}
	if rs.mono {
		rs.res.Outcome.FullConsensus = true
		rs.res.Outcome.ConsensusTime = rs.monoAt
		if rs.aliveN < cfg.N && rs.aliveN > 0 {
			// Survivor consensus: crashed nodes hold stale colors, so the
			// count-based Outcome cannot see the winner; read it off the
			// first survivor instead.
			for v := 0; v < cfg.N; v++ {
				if !rs.crashed[v] {
					rs.res.Outcome.Winner = rs.cols[v]
					break
				}
			}
			rs.res.Outcome.PluralityWon = rs.res.Outcome.Winner == rs.plurality
		}
	}
	// Flatten the phase map into ordered spans.
	for g := 1; g <= gStar+1; g++ {
		if ph, ok := rs.phase[g]; ok {
			rs.res.PhaseSpans = append(rs.res.PhaseSpans, *ph)
		}
	}
	return rs.res, nil
}
