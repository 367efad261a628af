package baseline

import (
	"errors"
	"math"

	"plurality/internal/adversary"
	"plurality/internal/core/asyncrun"
	"plurality/internal/opinion"
	"plurality/internal/sim"
	"plurality/internal/topo"
	"plurality/internal/xrand"
)

// evComplete is the Poisson baseline's own event kind: node ev.Node's
// channels to its (up to three) sampled targets ev.A, ev.B, ev.C
// completing. The tick and the cold kinds are the run frame's
// (asyncrun.Kind*).
const evComplete int32 = 1

// poissonState is the mutable state of one Poisson-scheduler baseline run.
// Sampled targets travel inside the typed event payload and the opinion
// reads go through a fixed scratch buffer, so the per-tick path performs no
// allocations.
type poissonState struct {
	asyncrun.Frame
	rule     Rule
	nSamples int
	tickFn   func(int)
	bs       topo.BatchSampler // cfg.Topo's bulk path, resolved once
	scratch  *topo.Scratch     // batch-sampling buffers (per-worker under RunBatch)
	smp      *xrand.RNG

	locked []bool
	opBuf  [3]opinion.Opinion // rule.Samples() <= 3 for every built-in rule
}

// HandleEvent dispatches the Poisson baseline's typed events.
func (ps *poissonState) HandleEvent(ev sim.Event) {
	switch ev.Kind {
	case asyncrun.KindTick:
		ps.Clocks.Fire(ev.Node, ps.tickFn)
	case evComplete:
		ps.complete(int(ev.Node), ev.A, ev.B, ev.C)
	default:
		ps.Frame.Handle(ev)
	}
}

func (ps *poissonState) setNode(v int, c opinion.Opinion) {
	old := ps.Cols[v]
	if old == c {
		return
	}
	ps.Cols[v] = c
	if old != opinion.None {
		ps.Counts[old]--
	}
	if c == opinion.None {
		return
	}
	ps.Counts[c]++
	if ps.Counts[c] == ps.Crash.Alive && !ps.Mono {
		ps.Mono = true
		ps.MonoAt = ps.Sim.Now()
	}
}

func (ps *poissonState) tick(v int) {
	if ps.Mono || ps.locked[v] {
		return
	}
	ps.locked[v] = true
	var t [3]int32
	if ps.nSamples > 0 {
		vs, out := ps.scratch.Buffers(ps.nSamples)
		for i := range vs {
			vs[i] = int32(v)
		}
		ps.bs.SampleNeighbors(ps.smp, vs, out)
		copy(t[:], out)
	}
	d := 0.0
	for i := 0; i < ps.nSamples; i++ {
		d = math.Max(d, ps.Lat.Sample(ps.LatR))
	}
	ps.Sim.ScheduleAfter(d, sim.Event{Kind: evComplete, Node: int32(v), A: t[0], B: t[1], C: t[2]})
}

func (ps *poissonState) complete(v int, a, b, c int32) {
	ps.locked[v] = false
	if ps.Mono {
		return
	}
	t := [3]int32{a, b, c}
	for i := 0; i < ps.nSamples; i++ {
		ps.opBuf[i] = ps.Cols[t[i]]
	}
	ps.setNode(v, ps.rule.Update(ps.Cols[v], ps.opBuf[:ps.nSamples]))
}

// RunPoisson drives a rule under the paper's asynchronous communication
// model (§3.1): every node ticks at Poisson rate 1, opens channels to its
// samples in parallel (accumulated latency = max of the individual
// latencies), reads their opinions when all channels are up, and updates
// atomically. While waiting, the node is locked and skips further ticks.
// This is the model-true asynchronous form of the classical dynamics,
// letting E16 compare them head-to-head with the leader-based protocol on
// identical semantics. Time in the result is virtual time steps; lat nil
// means Exp(1).
func RunPoisson(rule Rule, cfg Config, lat sim.Latency) (*Result, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	if cfg.Adv.Kind != adversary.None {
		return nil, errors.New("baseline: the Poisson runner has no adversary support")
	}
	if cfg.Ckpt != nil {
		return nil, errors.New("baseline: the Poisson runner has no checkpoint support")
	}
	if lat == nil {
		lat = sim.ExpLatency{Rate: 1}
	}
	if n := rule.Samples(); n > 3 {
		panic("baseline: rules with more than 3 samples need a wider event payload")
	}
	root := xrand.New(cfg.Seed)
	cols, counts, plurality := opinion.Initial(cfg.N, cfg.K, cfg.Assignment, cfg.Alpha, root)
	ps := &poissonState{
		Frame:    asyncrun.Frame{Cols: cols, Counts: counts, Plurality: plurality},
		rule:     rule,
		nSamples: rule.Samples(),
		bs:       topo.Batch(cfg.Topo),
		scratch:  cfg.scratch(),
		smp:      root.SplitNamed("sampling"),
		locked:   make([]bool, cfg.N),
	}
	ps.tickFn = ps.tick
	if err := ps.Start(ps, root, asyncrun.Config{
		N: cfg.N, K: cfg.K, Latency: lat, MaxTime: float64(cfg.MaxRounds),
		RecordEvery: float64(cfg.RecordEvery), Eps: cfg.Eps, DiscardTrajectory: cfg.DiscardTrajectory,
		Observe: cfg.Observe, Ctx: cfg.Ctx, Reserve: 2*cfg.N + 64,
	}); err != nil {
		return nil, err
	}
	if err := ps.Run(nil); err != nil {
		return nil, err
	}
	sum := ps.Finish()
	return &Result{
		Rule: rule.Name(), InitialPlurality: plurality, Rounds: int(sum.EndTime),
		FinalCounts: sum.FinalCounts, Trajectory: sum.Trajectory, Outcome: sum.Outcome,
	}, nil
}
