package leader

import (
	"fmt"
	"math"

	"plurality/internal/adversary"
	"plurality/internal/core/syncgen"
	"plurality/internal/metrics"
	"plurality/internal/opinion"
	"plurality/internal/sim"
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
	// Outcome summarizes correctness and hitting times (virtual time).
	Outcome metrics.Outcome
	// Trajectory holds the periodic snapshots.
	Trajectory metrics.Trajectory
	// EndTime is the virtual time at termination.
	EndTime float64
	// Events is the number of simulator events processed.
	Events uint64
	// PhaseLog records every leader phase/generation change.
	PhaseLog []PhaseEvent
	// FinalCounts are the opinion counts at termination.
	FinalCounts opinion.Counts
	// InitialPlurality is the opinion that was initially dominant.
	InitialPlurality opinion.Opinion
	// C1 is the steps-per-time-unit constant the run used.
	C1 float64
	// GStar is the generation cap the run used.
	GStar int
	// TimedOut reports that MaxTime was hit before full consensus.
	TimedOut bool
	// TotalLeaderMessages counts every message that reached the leader
	// (0-signals, gen-signals and state reads), and PeakLeaderLoad the
	// maximum number of those per time unit — the §4.5 bottleneck metric
	// that motivates the decentralized protocol.
	TotalLeaderMessages uint64
	PeakLeaderLoad      float64
	// AdvCounters tallies the adversary's actions (zero for honest runs).
	AdvCounters adversary.Counters
}

// Typed event kinds of the single-leader engine (see HandleEvent). All
// scheduler state of a run is typed — the cold-path actions (periodic
// recorder, deadline watchdog, crash injection) are events too — which is
// what makes the pending event queue plain data and a run checkpointable
// mid-flight.
const (
	// evTick is one Poisson tick of node ev.Node.
	evTick int32 = iota
	// evSignal is an i-signal (i = ev.A) arriving at the leader.
	evSignal
	// evComplete is node ev.Node's channels to samples ev.A and ev.B
	// completing.
	evComplete
	// evRecord is the periodic trajectory recorder; it reschedules itself
	// every cfg.RecordEvery time steps and stops the run on consensus or
	// deadline.
	evRecord
	// evDeadline is the hard MaxTime watchdog, independent of the recorder
	// cadence.
	evDeadline
	// evCrash applies the crash-adversary actions due now: a one-shot
	// fail-stop of the victim pool, or one churn toggle (see
	// internal/adversary).
	evCrash
	// evAdvDeliver delivers a message the delay adversary held back: A is
	// the payload-arena slot holding the original event.
	evAdvDeliver
)

// runState bundles the mutable simulation state of one run.
type runState struct {
	cfg     Config
	sm      *sim.Simulator
	clocks  *sim.Clocks
	tickFn  func(int)         // rs.tick bound once so Fire calls allocate nothing
	bs      topo.BatchSampler // cfg.Topo's bulk path, resolved once
	scratch *topo.Scratch     // batch-sampling buffers (per-worker under RunBatch)
	lat     sim.Latency
	tickR   *xrand.RNG // sampling randomness (targets)
	latR    *xrand.RNG // latency randomness

	cols   []opinion.Opinion
	gens   []int32
	locked []bool
	seenG  []int32 // l.gen stored at the previous leader contact
	seenP  []bool  // l.prop stored at the previous leader contact

	colorCount []int
	genCount   []int
	maxGen     int

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
	plurality  opinion.Opinion
	mono       bool
	monoAt     float64
	totalTicks uint64

	// crash is the run's crash set; consensus is detected against its
	// survivor count. Honest runs keep every node up.
	crash adversary.Crashes

	// adv is the run's adversary (nil for honest runs — the nil check is
	// the only cost the hot path pays) and payload the side-arena delayed
	// messages park their original event in.
	adv     *adversary.State
	payload *sim.PayloadArena

	// maxTime is the effective abort horizon and rec the trajectory
	// recorder; both live on the state so the evRecord/evDeadline handlers
	// can reach them.
	maxTime float64
	rec     *metrics.Recorder
}

// Run executes Algorithms 2 and 3 under cfg.
func Run(cfg Config) (*Result, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	root := xrand.New(cfg.Seed)

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
		perGen := cfg.C3 + cfg.C1*(math.Log(4.5*float64(cfg.K+1))/math.Log(1.4)+2)
		maxTime = 16*float64(gStar)*perGen + 30*cfg.C1*math.Log2(float64(cfg.N))
	}

	scratch := cfg.Scratch
	if scratch == nil {
		scratch = &topo.Scratch{}
	}
	rs := &runState{
		cfg:        cfg,
		sm:         sim.New(),
		bs:         topo.Batch(cfg.Topo),
		scratch:    scratch,
		lat:        cfg.Latency,
		tickR:      root.SplitNamed("ticks"),
		latR:       root.SplitNamed("latency"),
		cols:       cols,
		gens:       make([]int32, cfg.N),
		locked:     make([]bool, cfg.N),
		seenG:      make([]int32, cfg.N),
		seenP:      make([]bool, cfg.N),
		colorCount: initCounts,
		genCount:   make([]int, gStar+1),
		leaderGen:  1,
		c3Ticks:    int(cfg.C3 * float64(cfg.N)),
		genThresh:  int(math.Ceil(cfg.GenFraction * float64(cfg.N))),
		gStar:      gStar,
		propSeen:   make([]bool, gStar+2),
		plurality:  opinion.Opinion(pl),
		res: &Result{
			InitialPlurality: opinion.Opinion(pl),
			C1:               cfg.C1,
			GStar:            gStar,
		},
	}
	rs.genCount[0] = cfg.N
	rs.maxTime = maxTime
	rs.crash = adversary.NewCrashes(cfg.N)
	rs.res.PhaseLog = append(rs.res.PhaseLog,
		PhaseEvent{Time: 0, Gen: 1, Phase: PhaseTwoChoices})
	restoring := cfg.Ckpt.Restoring()
	adv, err := adversary.Start(cfg.Adv, cfg.N, initCounts, true)
	if err != nil {
		return nil, fmt.Errorf("leader: %w", err)
	}
	if adv != nil {
		rs.adv = adv
		rs.payload = &sim.PayloadArena{}
		if at := adv.NextCrashAt(); at >= 0 && !restoring {
			rs.sm.Schedule(at, sim.Event{Kind: evCrash})
		}
	}

	// The nodes' Poisson clocks, run as one superposed process.
	rs.tickFn = rs.tick
	rs.sm.SetHandler(rs)
	rs.sm.Reserve(3*cfg.N + 64)
	clockR := root.SplitNamed("clocks")
	rs.clocks = sim.NewClocks(rs.sm, clockR, cfg.N, 1, evTick)
	rs.rec = metrics.NewRecorder(cfg.Eps, cfg.DiscardTrajectory, cfg.Observe)
	if restoring {
		// Deterministic setup above sized every slice; now overwrite all
		// mutable state (event heap included) from the captured payload.
		if err := rs.restore(cfg.Ckpt.Restore, cfg.Ckpt.Perturb); err != nil {
			return nil, err
		}
	} else {
		rs.clocks.StartAll()
		// Periodic recorder + termination watchdog, both typed events so
		// the pending queue stays plain data (see evRecord/evDeadline).
		rs.record()
		rs.sm.ScheduleAfter(cfg.RecordEvery, sim.Event{Kind: evRecord})
		// Hard deadline, independent of the recorder cadence.
		rs.sm.Schedule(maxTime, sim.Event{Kind: evDeadline})
	}

	if err := rs.runSim(cfg.Ctx); err != nil {
		return nil, err
	}

	rs.res.EndTime = rs.sm.Now()
	rs.res.Events = rs.sm.Processed()
	if rs.adv != nil {
		rs.res.AdvCounters = rs.adv.Counters
	}
	if rs.loadCount > rs.peakLoad {
		rs.peakLoad = rs.loadCount
	}
	rs.res.PeakLeaderLoad = float64(rs.peakLoad)
	rs.res.FinalCounts = opinion.CountOf(rs.cols, cfg.K)
	// Ensure the final state is in the trajectory exactly once more (the
	// stop path records before stopping, but a monochromatic flip between
	// recordings would otherwise be missed).
	if last, ok := rs.rec.Last(); !ok || last.Time < rs.res.EndTime {
		rs.record()
	}
	rs.res.Trajectory = rs.rec.Trajectory()
	rs.res.Outcome = rs.rec.Outcome(rs.res.FinalCounts, rs.plurality)
	if rs.mono {
		// Tighten the consensus time to the exact flip moment.
		rs.res.Outcome.FullConsensus = true
		rs.res.Outcome.ConsensusTime = rs.monoAt
	}
	return rs.res, nil
}

// HandleEvent dispatches the engine's typed events; it is the hot path a
// run spends nearly all its time in, so every case is allocation-free.
func (rs *runState) HandleEvent(ev sim.Event) {
	switch ev.Kind {
	case evTick:
		rs.clocks.Fire(ev.Node, rs.tickFn)
	case evSignal:
		rs.leaderSignal(int(ev.A))
	case evComplete:
		rs.complete(int(ev.Node), int(ev.A), int(ev.B))
	case evRecord:
		rs.record()
		if rs.mono {
			rs.sm.Stop()
			return
		}
		if rs.sm.Now() >= rs.maxTime {
			rs.res.TimedOut = true
			rs.sm.Stop()
			return
		}
		rs.sm.ScheduleAfter(rs.cfg.RecordEvery, sim.Event{Kind: evRecord})
	case evDeadline:
		if rs.sm.Now() < rs.maxTime {
			// The horizon was extended after this watchdog was queued (a
			// resumed run may override MaxTime); re-arm at the new deadline.
			rs.sm.Schedule(rs.maxTime, sim.Event{Kind: evDeadline})
			return
		}
		if !rs.mono {
			rs.record()
			rs.res.TimedOut = true
			rs.sm.Stop()
		}
	case evCrash:
		if next := rs.crash.Apply(rs.adv, rs.sm.Now(), rs.noteCrash); next >= 0 {
			rs.sm.Schedule(next, sim.Event{Kind: evCrash})
		}
		// Survivors may already be unanimous.
		for _, cnt := range rs.colorCount {
			if cnt == rs.crash.Alive && rs.crash.Alive > 0 && !rs.mono {
				rs.mono = true
				rs.monoAt = rs.sm.Now()
			}
		}
	case evAdvDeliver:
		rs.HandleEvent(rs.payload.Take(ev.A))
	}
}

// record appends one trajectory snapshot at the current virtual time.
func (rs *runState) record() {
	p := metrics.Snapshot(rs.sm.Now(), rs.cols, rs.cfg.K, rs.plurality)
	p.MaxGen = rs.maxGen
	p.MaxGenFrac = float64(rs.genCount[rs.maxGen]) / float64(rs.cfg.N)
	rs.rec.Append(p)
}

// noteCrash moves a crashed (down) or recovered node's color out of or
// back into the survivor tallies.
func (rs *runState) noteCrash(v int, down bool) {
	if down {
		rs.colorCount[rs.cols[v]]--
	} else {
		rs.colorCount[rs.cols[v]]++
	}
}

// sendMsg schedules a protocol message, giving the delay adversary a chance
// to stretch the delivery: a delayed message parks the original event in the
// payload arena and is re-dispatched by evAdvDeliver. Honest runs take the
// plain path (one nil check, no extra draws).
func (rs *runState) sendMsg(d float64, ev sim.Event) {
	if rs.adv != nil {
		if extra := rs.adv.DelayExtra(rs.lat); extra > 0 {
			rs.sm.ScheduleAfter(d+extra, sim.Event{Kind: evAdvDeliver, A: rs.payload.Put(ev)})
			return
		}
	}
	rs.sm.ScheduleAfter(d, ev)
}

// tick handles one Poisson tick of node v (Algorithm 2 lines 1-3).
func (rs *runState) tick(v int) {
	if rs.mono || rs.crash.Down[v] {
		return
	}
	rs.totalTicks++
	// Line 1: 0-signal to the leader; fire-and-forget with latency.
	// SignalLoss (an extension; 0 in the paper's model) may drop it.
	if rs.cfg.SignalLoss == 0 || !rs.latR.Bernoulli(rs.cfg.SignalLoss) {
		rs.sendMsg(rs.lat.Sample(rs.latR), sim.Event{Kind: evSignal})
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
	d := math.Max(rs.lat.Sample(rs.latR), rs.lat.Sample(rs.latR)) +
		rs.lat.Sample(rs.latR)
	rs.sendMsg(d, sim.Event{Kind: evComplete, Node: int32(v), A: out[0], B: out[1]})
}

// complete handles the established channels of node v (Algorithm 2 lines
// 5-15).
func (rs *runState) complete(v, a, b int) {
	// The event runs atomically, so the lock can drop on entry: it only
	// gates future tick events.
	rs.locked[v] = false
	if rs.mono || rs.crash.Down[v] {
		return
	}
	// Reading (gen, prop) is one more request the leader serves.
	rs.leaderMessage()
	// Crashed samples never answer: the affected branch simply sees no
	// usable state from them. The drop adversary loses replies the same
	// way, and Byzantine liars answer with the lie target instead of their
	// true opinion.
	aUp, bUp := !rs.crash.Down[a], !rs.crash.Down[b]
	colA, colB := rs.cols[a], rs.cols[b]
	if rs.adv != nil {
		aUp = aUp && !rs.adv.DropMessage()
		bUp = bUp && !rs.adv.DropMessage()
		colA = opinion.Opinion(rs.adv.Lie(a, int32(colA)))
		colB = opinion.Opinion(rs.adv.Lie(b, int32(colB)))
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
	old := rs.cols[v]
	oldGen := rs.gens[v]
	rs.cols[v] = col
	rs.gens[v] = gen
	if old != col {
		rs.colorCount[old]--
		rs.colorCount[col]++
		if rs.colorCount[col] == rs.crash.Alive && !rs.mono {
			rs.mono = true
			rs.monoAt = rs.sm.Now()
		}
	}
	if gen != oldGen {
		rs.genCount[oldGen]--
		rs.genCount[gen]++
		if int(gen) > rs.maxGen {
			rs.maxGen = int(gen)
		}
		if gen > oldGen {
			if rs.cfg.SignalLoss == 0 || !rs.latR.Bernoulli(rs.cfg.SignalLoss) {
				rs.sendMsg(rs.lat.Sample(rs.latR),
					sim.Event{Kind: evSignal, A: int32(gen)})
			}
		}
	}
}

// leaderMessage accounts one message (signal or state read) reaching the
// leader, bucketed by time unit for the §4.5 congestion metric.
func (rs *runState) leaderMessage() {
	rs.res.TotalLeaderMessages++
	bucket := int32(rs.sm.Now() / rs.cfg.C1)
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
	if rs.mono {
		return
	}
	if i == 0 {
		rs.leaderT++
		if !rs.leaderProp && rs.leaderT >= rs.c3Ticks {
			rs.leaderProp = true
			rs.propSeen[rs.leaderGen] = true
			rs.res.PhaseLog = append(rs.res.PhaseLog, PhaseEvent{
				Time: rs.sm.Now(), Gen: rs.leaderGen, Phase: PhasePropagation})
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
				Time: rs.sm.Now(), Gen: rs.leaderGen, Phase: PhaseTwoChoices})
		}
	}
}
