package noleader

import (
	"fmt"
	"math"

	"plurality/internal/cluster"
	"plurality/internal/core/asyncrun"
	"plurality/internal/core/syncgen"
	"plurality/internal/metrics"
	"plurality/internal/opinion"
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

// Result captures one decentralized run. Its Summary covers the
// consensus phase: times are virtual time with clustering excluded.
type Result struct {
	// Summary is what every asynchronous run reports: outcome,
	// trajectory, end time, events, final counts, time-out and adversary
	// counters.
	asyncrun.Summary
	// Clustering is the structure the consensus phase ran on.
	Clustering *cluster.Clustering
	// PhaseSpans records the Figure 2 marks per generation.
	PhaseSpans []GenPhases
	// ClusteringTime is the formation time that preceded the consensus
	// phase.
	ClusteringTime float64
	// InitialPlurality is the opinion that was initially dominant.
	InitialPlurality opinion.Opinion
	// C1 is the steps-per-unit constant used, GStar the generation cap.
	C1    float64
	GStar int
	// TotalLeaderMessages counts messages reaching any cluster leader, and
	// PeakLeaderLoad the maximum any single leader served per time unit —
	// the §4.5 congestion metric. The decentralized design exists so this
	// stays polylog(n) where the single leader's is Θ(n).
	TotalLeaderMessages uint64
	PeakLeaderLoad      float64
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
	var restoreC *snap.Codec
	if cfg.Ckpt.Restoring() {
		restoreC = snap.NewDecoder(cfg.Ckpt.Restore)
		cl = &cluster.Clustering{}
		cl.Layout(restoreC)
		if err := restoreC.Err(); err != nil {
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
	cols, initCounts, pl := opinion.Initial(cfg.N, cfg.K, cfg.Assignment, cfg.Alpha, root)
	gStar := cfg.GStar
	if gStar <= 0 {
		gStar = syncgen.GenerationBudget(cfg.N, initCounts.Bias()) + 2
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
		Frame:     asyncrun.Frame{Cols: cols, Counts: initCounts, Plurality: pl},
		cfg:       cfg,
		cl:        cl,
		bs:        topo.Batch(cfg.Topo),
		scratch:   scratch,
		smp:       root.SplitNamed("sampling"),
		gens:      make([]int32, cfg.N),
		finished:  make([]bool, cfg.N),
		locked:    make([]bool, cfg.N),
		tmpGen:    make([]int32, cfg.N),
		tmpState:  make([]int8, cfg.N),
		leaderIdx: make([]int32, cfg.N),
		gStar:     gStar,
		phase:     map[int]*GenPhases{},
		res: &Result{
			Clustering:       cl,
			ClusteringTime:   cl.EndTime,
			InitialPlurality: pl,
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
		if restoreC != nil {
			// Formation never hands such a clustering to a capture.
			return nil, fmt.Errorf("noleader: %w: clustering without a participating leader", snap.ErrCorrupt)
		}
		// Degenerate clustering: report a failed run rather than panic.
		rs.res.TimedOut = true
		rs.res.FinalCounts = initCounts
		rec := metrics.NewRecorder(cfg.Eps, true, nil)
		rec.Append(metrics.SnapshotCounts(0, initCounts, cfg.N, pl))
		rs.res.Outcome = rec.Outcome(initCounts, cfg.N, pl)
		return rs.res, nil
	}

	rs.tickFn = rs.tick
	if err := rs.Start(rs, root, asyncrun.Config{
		N: cfg.N, K: cfg.K, Latency: cfg.Latency, MaxTime: maxTime, RecordEvery: cfg.RecordEvery,
		Eps: cfg.Eps, DiscardTrajectory: cfg.DiscardTrajectory, Observe: cfg.Observe,
		Adv: cfg.Adv, Ckpt: cfg.Ckpt, Ctx: cfg.Ctx, Reserve: 3*cfg.N + 64, Point: rs.point,
	}); err != nil {
		return nil, fmt.Errorf("noleader: %w", err)
	}
	if restoreC != nil {
		// Deterministic setup above sized every slice; now overwrite all
		// mutable state (event heap included) from the captured payload,
		// which restoreC holds right after the embedded clustering.
		if err := rs.Restore(restoreC, rs.layout, rs.check, rs.validEvent, cfg.Ckpt.Perturb); err != nil {
			return nil, fmt.Errorf("noleader: %w", err)
		}
		rs.smp.Perturb(cfg.Ckpt.Perturb)
	}
	if err := rs.Run(rs.capture); err != nil {
		return nil, err
	}

	// Fold the still-open time-unit buckets into the running peak.
	for _, c := range rs.loadCount {
		if c > rs.peakLoad {
			rs.peakLoad = c
		}
	}
	rs.res.PeakLeaderLoad = float64(rs.peakLoad)
	rs.res.Summary = rs.Finish()
	// Flatten the phase map into ordered spans.
	for g := 1; g <= gStar+1; g++ {
		if ph, ok := rs.phase[g]; ok {
			rs.res.PhaseSpans = append(rs.res.PhaseSpans, *ph)
		}
	}
	return rs.res, nil
}
