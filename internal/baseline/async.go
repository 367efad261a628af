package baseline

import (
	"errors"
	"math"

	"plurality/internal/adversary"
	"plurality/internal/metrics"
	"plurality/internal/opinion"
	"plurality/internal/sim"
	"plurality/internal/topo"
	"plurality/internal/xrand"
)

// Typed event kinds of the Poisson baseline engine (see HandleEvent). The
// cold-path actions (periodic recorder, deadline watchdog) are typed events
// too, so the pending queue is plain data and a run is checkpointable
// mid-flight.
const (
	// evTick is one Poisson tick of node ev.Node.
	evTick int32 = iota
	// evComplete is node ev.Node's channels to its (up to three) sampled
	// targets ev.A, ev.B, ev.C completing.
	evComplete
	// evRecord is the periodic trajectory recorder; it reschedules itself
	// every cfg.RecordEvery time steps.
	evRecord
	// evDeadline is the hard MaxRounds watchdog.
	evDeadline
)

// poissonState is the mutable state of one Poisson-scheduler baseline run.
// Sampled targets travel inside the typed event payload and the opinion
// reads go through a fixed scratch buffer, so the per-tick path performs no
// allocations.
type poissonState struct {
	cfg      Config
	rule     Rule
	nSamples int
	sm       *sim.Simulator
	clocks   *sim.Clocks
	tickFn   func(int)
	bs       topo.BatchSampler // cfg.Topo's bulk path, resolved once
	scratch  *topo.Scratch     // batch-sampling buffers (per-worker under RunBatch)
	lat      sim.Latency
	smp      *xrand.RNG
	latR     *xrand.RNG

	cols      []opinion.Opinion
	locked    []bool
	counts    opinion.Counts
	undecided int
	opBuf     [3]opinion.Opinion // rule.Samples() <= 3 for every built-in rule

	mono   bool
	monoAt float64

	// maxTime is the effective abort horizon, plurality the initially
	// dominant opinion and rec the trajectory recorder; they live on the
	// state so the evRecord/evDeadline handlers can reach them.
	maxTime   float64
	plurality opinion.Opinion
	rec       *metrics.Recorder
}

// HandleEvent dispatches the Poisson baseline's typed events.
func (ps *poissonState) HandleEvent(ev sim.Event) {
	switch ev.Kind {
	case evTick:
		ps.clocks.Fire(ev.Node, ps.tickFn)
	case evComplete:
		ps.complete(int(ev.Node), ev.A, ev.B, ev.C)
	case evRecord:
		ps.record()
		if ps.mono || ps.sm.Now() >= ps.maxTime {
			ps.sm.Stop()
			return
		}
		ps.sm.ScheduleAfter(float64(ps.cfg.RecordEvery), sim.Event{Kind: evRecord})
	case evDeadline:
		if ps.sm.Now() < ps.maxTime {
			// The horizon was extended after this watchdog was queued (a
			// resumed run may override MaxRounds); re-arm at the new
			// deadline.
			ps.sm.Schedule(ps.maxTime, sim.Event{Kind: evDeadline})
			return
		}
		if !ps.mono {
			ps.record()
			ps.sm.Stop()
		}
	}
}

// record appends one trajectory snapshot at the current virtual time.
func (ps *poissonState) record() {
	ps.rec.Append(metrics.Snapshot(ps.sm.Now(), ps.cols, ps.cfg.K, ps.plurality))
}

func (ps *poissonState) isMono() bool {
	if ps.undecided > 0 {
		return false
	}
	for _, c := range ps.counts {
		if c == ps.counts.Total() && c > 0 {
			return true
		}
	}
	return false
}

func (ps *poissonState) setNode(v int, c opinion.Opinion) {
	old := ps.cols[v]
	if old == c {
		return
	}
	ps.cols[v] = c
	if old == opinion.None {
		ps.undecided--
	} else {
		ps.counts[old]--
	}
	if c == opinion.None {
		ps.undecided++
	} else {
		ps.counts[c]++
	}
	if !ps.mono && ps.isMono() {
		ps.mono = true
		ps.monoAt = ps.sm.Now()
	}
}

func (ps *poissonState) tick(v int) {
	if ps.mono || ps.locked[v] {
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
		d = math.Max(d, ps.lat.Sample(ps.latR))
	}
	ps.sm.ScheduleAfter(d, sim.Event{Kind: evComplete, Node: int32(v), A: t[0], B: t[1], C: t[2]})
}

func (ps *poissonState) complete(v int, a, b, c int32) {
	ps.locked[v] = false
	if ps.mono {
		return
	}
	t := [3]int32{a, b, c}
	for i := 0; i < ps.nSamples; i++ {
		ps.opBuf[i] = ps.cols[t[i]]
	}
	ps.setNode(v, ps.rule.Update(ps.cols[v], ps.opBuf[:ps.nSamples]))
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
	cols, plurality := initialState(&cfg, root)
	res := &Result{Rule: rule.Name(), InitialPlurality: plurality}
	rec := metrics.NewRecorder(cfg.Eps, cfg.DiscardTrajectory, cfg.Observe)

	sm := sim.New()
	ps := &poissonState{
		cfg:      cfg,
		rule:     rule,
		nSamples: rule.Samples(),
		sm:       sm,
		bs:       topo.Batch(cfg.Topo),
		scratch:  cfg.scratch(),
		lat:      lat,
		smp:      root.SplitNamed("sampling"),
		latR:     root.SplitNamed("latency"),
		cols:     cols,
		locked:   make([]bool, cfg.N),
		counts:   opinion.CountOf(cols, cfg.K),
	}
	for _, c := range cols {
		if c == opinion.None {
			ps.undecided++
		}
	}

	ps.tickFn = ps.tick
	sm.SetHandler(ps)
	sm.Reserve(2*cfg.N + 64)
	clockR := root.SplitNamed("clocks")
	ps.clocks = sim.NewClocks(sm, clockR, cfg.N, 1, evTick)
	ps.maxTime = float64(cfg.MaxRounds)
	ps.plurality = plurality
	ps.rec = rec
	ps.clocks.StartAll()
	// Periodic recorder + termination watchdog, both typed events so the
	// pending queue stays plain data (see evRecord/evDeadline).
	ps.record()
	sm.ScheduleAfter(float64(cfg.RecordEvery), sim.Event{Kind: evRecord})
	sm.Schedule(ps.maxTime, sim.Event{Kind: evDeadline})
	if err := sm.RunContext(cfg.Ctx); err != nil {
		return nil, err
	}

	res.Rounds = int(sm.Now())
	res.FinalCounts = opinion.CountOf(cols, cfg.K)
	res.Trajectory = rec.Trajectory()
	res.Outcome = rec.Outcome(res.FinalCounts, plurality)
	if ps.mono {
		res.Outcome.FullConsensus = true
		res.Outcome.ConsensusTime = ps.monoAt
	}
	return res, nil
}
