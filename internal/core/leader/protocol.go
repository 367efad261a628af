package leader

import (
	"fmt"
	"math"

	"plurality/internal/core/asyncrun"
	"plurality/internal/core/syncgen"
	"plurality/internal/metrics"
	"plurality/internal/opinion"
	"plurality/internal/sim"
	"plurality/internal/snap"
	"plurality/internal/topo"
	"plurality/internal/xrand"
)

// Phase labels the leader's mode for one generation.
type Phase int

const (
	// PhaseTwoChoices means the leader currently allows two-choices
	// promotions into its newest generation (prop = false).
	PhaseTwoChoices Phase = iota + 1
	// PhasePropagation means the leader allows pull propagation into the
	// newest generation (prop = true).
	PhasePropagation
)

// String names the phase for logs.
func (p Phase) String() string {
	switch p {
	case PhaseTwoChoices:
		return "two-choices"
	case PhasePropagation:
		return "propagation"
	default:
		return "unknown"
	}
}

// PhaseEvent records one leader state change.
type PhaseEvent struct {
	// Time is the virtual time of the change.
	Time float64
	// Gen is the leader's generation after the change.
	Gen int
	// Phase is the leader's mode after the change.
	Phase Phase
}

// Result captures one asynchronous single-leader run.
type Result struct {
	// Summary is what every asynchronous run reports: outcome,
	// trajectory, end time, events, final counts, time-out and adversary
	// counters.
	asyncrun.Summary
	// PhaseLog records every leader phase/generation change.
	PhaseLog []PhaseEvent
	// InitialPlurality is the opinion that was initially dominant.
	InitialPlurality opinion.Opinion
	// C1 is the steps-per-time-unit constant the run used.
	C1 float64
	// GStar is the generation cap the run used.
	GStar int
	// TotalLeaderMessages counts every message that reached the leader
	// (0-signals, gen-signals and state reads), and PeakLeaderLoad the
	// maximum number of those per time unit — the §4.5 bottleneck metric
	// that motivates the decentralized protocol.
	TotalLeaderMessages uint64
	PeakLeaderLoad      float64
}

// The single-leader engine's own event kinds (see HandleEvent); the tick
// and the cold kinds are the run frame's (asyncrun.Kind*).
const (
	// evSignal is an i-signal (i = ev.A) arriving at the leader.
	evSignal int32 = 1
	// evComplete is node ev.Node's channels to samples ev.A and ev.B
	// completing.
	evComplete int32 = 2
)

// runState bundles the mutable simulation state of one run.
type runState struct {
	asyncrun.Frame
	cfg     Config
	tickFn  func(int)         // rs.tick bound once so Fire calls allocate nothing
	bs      topo.BatchSampler // cfg.Topo's bulk path, resolved once
	scratch *topo.Scratch     // batch-sampling buffers (per-worker under RunBatch)
	tickR   *xrand.RNG        // sampling randomness (targets)

	gens   []int32
	locked []bool
	seenG  []int32 // l.gen stored at the previous leader contact
	seenP  []bool  // l.prop stored at the previous leader contact

	genCount []int
	maxGen   int
	// downGen counts the crashed nodes of each generation, which genCount
	// still holds but the survivors do not.
	downGen []int

	leaderGen  int
	leaderProp bool
	leaderT    int
	leaderSize int
	c3Ticks    int
	genThresh  int
	gStar      int

	// propSeen[g] is true once the leader has been in (gen=g, prop) state;
	// used for the §3.2 invariant check.
	propSeen []bool

	// §4.5 congestion metric: leader-bound messages per C1-wide time
	// bucket. Time is monotone, so one open (bucket, count) pair plus a
	// running peak replaces a per-bucket map.
	loadBucket int32
	loadCount  uint64
	peakLoad   uint64

	res        *Result
	totalTicks uint64
}

// Run executes Algorithms 2 and 3 under cfg.
func Run(cfg Config) (*Result, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	root := xrand.New(cfg.Seed)
	cols, initCounts, pl := opinion.Initial(cfg.N, cfg.K, cfg.Assignment, cfg.Alpha, root)

	gStar := cfg.GStar
	if gStar <= 0 {
		gStar = syncgen.GenerationBudget(cfg.N, initCounts.Bias()) + 2
	}
	maxTime := cfg.MaxTime
	if maxTime <= 0 {
		perGen := cfg.C3 + cfg.C1*(math.Log(4.5*float64(cfg.K+1))/math.Log(1.4)+2)
		maxTime = 16*float64(gStar)*perGen + 30*cfg.C1*math.Log2(float64(cfg.N))
	}

	scratch := cfg.Scratch
	if scratch == nil {
		scratch = &topo.Scratch{}
	}
	rs := &runState{
		Frame:     asyncrun.Frame{Cols: cols, Counts: initCounts, Plurality: pl},
		cfg:       cfg,
		bs:        topo.Batch(cfg.Topo),
		scratch:   scratch,
		tickR:     root.SplitNamed("ticks"),
		gens:      make([]int32, cfg.N),
		locked:    make([]bool, cfg.N),
		seenG:     make([]int32, cfg.N),
		seenP:     make([]bool, cfg.N),
		genCount:  make([]int, gStar+1),
		downGen:   make([]int, gStar+1),
		leaderGen: 1,
		c3Ticks:   int(cfg.C3 * float64(cfg.N)),
		genThresh: int(math.Ceil(cfg.GenFraction * float64(cfg.N))),
		gStar:     gStar,
		propSeen:  make([]bool, gStar+2),
		res: &Result{
			InitialPlurality: pl,
			C1:               cfg.C1,
			GStar:            gStar,
			PhaseLog:         []PhaseEvent{{Time: 0, Gen: 1, Phase: PhaseTwoChoices}},
		},
	}
	rs.genCount[0] = cfg.N
	rs.tickFn = rs.tick
	if err := rs.Start(rs, root, asyncrun.Config{
		N: cfg.N, K: cfg.K, Latency: cfg.Latency, MaxTime: maxTime, RecordEvery: cfg.RecordEvery,
		Eps: cfg.Eps, DiscardTrajectory: cfg.DiscardTrajectory, Observe: cfg.Observe,
		Adv: cfg.Adv, Ckpt: cfg.Ckpt, Ctx: cfg.Ctx, Reserve: 3*cfg.N + 64, Point: rs.point,
		NoteCrash: rs.noteCrash,
	}); err != nil {
		return nil, fmt.Errorf("leader: %w", err)
	}
	if cfg.Ckpt.Restoring() {
		// Deterministic setup above sized every slice; now overwrite all
		// mutable state (event heap included) from the captured payload.
		if err := rs.Restore(snap.NewDecoder(cfg.Ckpt.Restore), rs.layout, rs.check, rs.validEvent, cfg.Ckpt.Perturb); err != nil {
			return nil, fmt.Errorf("leader: %w", err)
		}
		rs.tickR.Perturb(cfg.Ckpt.Perturb)
		for v, down := range rs.Crash.Down {
			if down {
				rs.noteCrash(v, true)
			}
		}
	}
	if err := rs.Run(rs.capture); err != nil {
		return nil, err
	}

	if rs.loadCount > rs.peakLoad {
		rs.peakLoad = rs.loadCount
	}
	rs.res.PeakLeaderLoad = float64(rs.peakLoad)
	rs.res.Summary = rs.Finish()
	return rs.res, nil
}

// HandleEvent dispatches the engine's typed events; it is the hot path a
// run spends nearly all its time in, so every case is allocation-free.
func (rs *runState) HandleEvent(ev sim.Event) {
	switch ev.Kind {
	case asyncrun.KindTick:
		rs.Clocks.Fire(ev.Node, rs.tickFn)
	case evSignal:
		rs.leaderSignal(int(ev.A))
	case evComplete:
		rs.complete(int(ev.Node), int(ev.A), int(ev.B))
	default:
		rs.Frame.Handle(ev)
	}
}

// point adds the generation fields to a recorded trajectory point: the
// highest generation present and the survivors' share in it.
func (rs *runState) point(p *metrics.Point) {
	p.MaxGen = rs.maxGen
	top := rs.genCount[rs.maxGen] - rs.downGen[rs.maxGen]
	if rs.Crash.Alive > 0 {
		p.MaxGenFrac = float64(top) / float64(rs.Crash.Alive)
	}
	if rs.cfg.CheckInvariants {
		recount := 0
		for v, g := range rs.gens {
			if int(g) == rs.maxGen && !rs.Crash.Down[v] {
				recount++
			}
		}
		if recount != top {
			panic(fmt.Sprintf("leader: %d survivors in generation %d, the tally says %d", recount, rs.maxGen, top))
		}
	}
}

// noteCrash moves a crashed (down) or recovered node's generation out of
// or back into the survivors' share; a crashed node keeps its generation.
func (rs *runState) noteCrash(v int, down bool) {
	if down {
		rs.downGen[rs.gens[v]]++
	} else {
		rs.downGen[rs.gens[v]]--
	}
}

// tick handles one Poisson tick of node v (Algorithm 2 lines 1-3).
func (rs *runState) tick(v int) {
	if rs.Mono || rs.Crash.Down[v] {
		return
	}
	rs.totalTicks++
	// Line 1: 0-signal to the leader; fire-and-forget with latency.
	// SignalLoss (an extension; 0 in the paper's model) may drop it.
	if rs.cfg.SignalLoss == 0 || !rs.LatR.Bernoulli(rs.cfg.SignalLoss) {
		rs.SendMsg(rs.Lat.Sample(rs.LatR), sim.Event{Kind: evSignal})
	}
	// Line 2: locked nodes do nothing else.
	if rs.locked[v] {
		return
	}
	rs.locked[v] = true
	// Lines 3-4: dial v', v'' in parallel, then the leader. Targets are
	// chosen now through the topology's bulk path (draw-for-draw identical
	// to two scalar samples); states are read when all channels are up.
	vs, out := rs.scratch.Buffers(2)
	vs[0], vs[1] = int32(v), int32(v)
	rs.bs.SampleNeighbors(rs.tickR, vs, out)
	d := max(rs.Lat.Sample(rs.LatR), rs.Lat.Sample(rs.LatR)) +
		rs.Lat.Sample(rs.LatR)
	rs.SendMsg(d, sim.Event{Kind: evComplete, Node: int32(v), A: out[0], B: out[1]})
}

// complete handles the established channels of node v (Algorithm 2 lines
// 5-15).
func (rs *runState) complete(v, a, b int) {
	// The event runs atomically, so the lock can drop on entry: it only
	// gates future tick events.
	rs.locked[v] = false
	if rs.Mono || rs.Crash.Down[v] {
		return
	}
	// Reading (gen, prop) is one more request the leader serves.
	rs.leaderMessage()
	// Crashed samples never answer: the affected branch simply sees no
	// usable state from them. The drop adversary loses replies the same
	// way, and Byzantine liars answer with the lie target instead of their
	// true opinion.
	aUp, bUp := !rs.Crash.Down[a], !rs.Crash.Down[b]
	colA, colB := rs.Cols[a], rs.Cols[b]
	if rs.Adv != nil {
		aUp = aUp && !rs.Adv.DropMessage()
		bUp = bUp && !rs.Adv.DropMessage()
		colA = opinion.Opinion(rs.Adv.Lie(a, int32(colA)))
		colB = opinion.Opinion(rs.Adv.Lie(b, int32(colB)))
	}
	lGen, lProp := rs.leaderGen, rs.leaderProp
	if int(rs.seenG[v]) != lGen || rs.seenP[v] != lProp {
		// Line 13-14: out of sync; refresh the stored leader state only.
		rs.seenG[v] = int32(lGen)
		rs.seenP[v] = lProp
		return
	}
	ga, gb := rs.gens[a], rs.gens[b]
	if aUp && bUp &&
		!lProp && ga == gb && int(ga) == lGen-1 && colA == colB {
		// Lines 6-8: two-choices promotion into generation lGen.
		if rs.cfg.CheckInvariants && rs.propSeen[lGen] {
			panic(fmt.Sprintf("leader: two-choices into gen %d after its propagation phase", lGen))
		}
		rs.setNode(v, colA, int32(lGen))
		return
	}
	// Lines 9-11: propagation from the best qualifying sample.
	pick := -1
	var pickGen int32 = -1
	var pickCol opinion.Opinion
	for i, x := range [2]int{a, b} {
		up, col := aUp, colA
		if i == 1 {
			up, col = bUp, colB
		}
		if !up {
			continue
		}
		gx := rs.gens[x]
		if gx > rs.gens[v] && (int(gx) < lGen || lProp) && gx > pickGen {
			pick = x
			pickGen = gx
			pickCol = col
		}
	}
	if pick >= 0 {
		rs.setNode(v, pickCol, rs.gens[pick])
	}
}

// setNode commits a color/generation update of node v and sends the
// gen-signal of Algorithm 2 line 12 when the generation increased.
func (rs *runState) setNode(v int, col opinion.Opinion, gen int32) {
	if rs.cfg.CheckInvariants && int(gen) > rs.leaderGen {
		panic(fmt.Sprintf("leader: node generation %d exceeds leader generation %d",
			gen, rs.leaderGen))
	}
	old := rs.Cols[v]
	oldGen := rs.gens[v]
	rs.Cols[v] = col
	rs.gens[v] = gen
	if old != col {
		rs.Recolor(old, col)
	}
	if gen != oldGen {
		rs.genCount[oldGen]--
		rs.genCount[gen]++
		if int(gen) > rs.maxGen {
			rs.maxGen = int(gen)
		}
		if gen > oldGen {
			if rs.cfg.SignalLoss == 0 || !rs.LatR.Bernoulli(rs.cfg.SignalLoss) {
				rs.SendMsg(rs.Lat.Sample(rs.LatR),
					sim.Event{Kind: evSignal, A: int32(gen)})
			}
		}
	}
}

// leaderMessage accounts one message (signal or state read) reaching the
// leader, bucketed by time unit for the §4.5 congestion metric.
func (rs *runState) leaderMessage() {
	rs.res.TotalLeaderMessages++
	bucket := int32(rs.Sim.Now() / rs.cfg.C1)
	if bucket != rs.loadBucket {
		if rs.loadCount > rs.peakLoad {
			rs.peakLoad = rs.loadCount
		}
		rs.loadBucket = bucket
		rs.loadCount = 0
	}
	rs.loadCount++
}

// leaderSignal processes one arriving i-signal at the leader (Algorithm 3).
func (rs *runState) leaderSignal(i int) {
	rs.leaderMessage()
	if rs.Mono {
		return
	}
	if i == 0 {
		rs.leaderT++
		if !rs.leaderProp && rs.leaderT >= rs.c3Ticks {
			rs.leaderProp = true
			rs.propSeen[rs.leaderGen] = true
			rs.res.PhaseLog = append(rs.res.PhaseLog, PhaseEvent{
				Time: rs.Sim.Now(), Gen: rs.leaderGen, Phase: PhasePropagation})
		}
	}
	if i == rs.leaderGen {
		rs.leaderSize++
		if rs.leaderSize >= rs.genThresh && rs.leaderGen < rs.gStar {
			rs.leaderGen++
			rs.leaderT = 0
			rs.leaderSize = 0
			rs.leaderProp = false
			rs.res.PhaseLog = append(rs.res.PhaseLog, PhaseEvent{
				Time: rs.Sim.Now(), Gen: rs.leaderGen, Phase: PhaseTwoChoices})
		}
	}
}
