package baseline

import (
	"context"
	"fmt"

	"plurality/internal/adversary"
	"plurality/internal/metrics"
	"plurality/internal/opinion"
	"plurality/internal/snap"
	"plurality/internal/topo"
	"plurality/internal/xrand"
)

// Config parametrizes one baseline run.
type Config struct {
	// N is the number of nodes (>= 2) and K the number of opinions (>= 1).
	N, K int
	// Alpha builds a planted-bias assignment when Assignment is nil.
	Alpha float64
	// Assignment optionally fixes the initial opinions (not mutated).
	Assignment []opinion.Opinion
	// MaxRounds caps the run; default 200·k·log₂n rounds, covering the
	// Θ(k log n) bound of 3-majority with ample slack.
	MaxRounds int
	// Seed drives all randomness.
	Seed uint64
	// RecordEvery sets the snapshot interval in rounds; default 1.
	RecordEvery int
	// Eps defines ε-convergence for the outcome; default 1/log² n.
	Eps float64
	// Topo is the interaction graph samples are drawn from; nil means the
	// complete graph on N nodes. Its size must equal N.
	Topo topo.Sampler
	// Ctx cancels or bounds the run; checked about once per (parallel)
	// round. nil means never cancelled.
	Ctx context.Context
	// Observe, when non-nil, receives every recorded snapshot as it
	// happens.
	Observe func(metrics.Point)
	// DiscardTrajectory leaves Result.Trajectory empty, keeping O(1)
	// recording memory; the Outcome is evaluated incrementally instead.
	DiscardTrajectory bool
	// Adv configures the shared adversary layer (crash/churn, drop,
	// Byzantine lying; see internal/adversary and adversary.go in this
	// package). The zero value disables it. The delay kind is rejected —
	// round-based runners have no message latency to stretch — and
	// RunPoisson does not support adversaries at all. Crash times and churn
	// gaps are measured in (parallel) rounds.
	Adv adversary.Config
	// Ckpt requests a mid-run state capture and/or resumes from one; nil
	// disables checkpointing. Ckpt.At is measured in (parallel) rounds, the
	// time axis of the Result. RunSync and RunSequential checkpoint;
	// RunPoisson rejects a non-nil Ckpt. See snap.Checkpoint for the
	// semantics shared by every engine.
	Ckpt *snap.Checkpoint
	// Scratch optionally supplies reusable batch-sampling buffers; nil
	// allocates run-local ones. The public batch layer passes one per
	// worker so replications sharing a worker share buffers.
	Scratch *topo.Scratch
}

// scratch returns the configured sampling workspace, defaulting a
// run-local one.
func (cfg *Config) scratch() *topo.Scratch {
	if cfg.Scratch == nil {
		cfg.Scratch = &topo.Scratch{}
	}
	return cfg.Scratch
}

// cancelled reports whether the config's context has been cancelled.
func (cfg *Config) cancelled() bool {
	if cfg.Ctx == nil {
		return false
	}
	select {
	case <-cfg.Ctx.Done():
		return true
	default:
		return false
	}
}

// Result captures one baseline run.
type Result struct {
	// Rule is the dynamics that ran.
	Rule string
	// Outcome summarizes correctness and hitting times. For the sequential
	// scheduler times are parallel rounds (interactions / n).
	Outcome metrics.Outcome
	// Trajectory holds the recorded snapshots.
	Trajectory metrics.Trajectory
	// Rounds is the number of (parallel) rounds executed.
	Rounds int
	// FinalCounts are the survivors' opinion counts at termination
	// (undecided nodes hold no opinion and are not counted).
	FinalCounts opinion.Counts
	// InitialPlurality is the opinion that was initially dominant.
	InitialPlurality opinion.Opinion
	// AdvCounters tallies the adversary's actions (zero for honest runs).
	AdvCounters adversary.Counters
}

func (cfg *Config) normalize() error {
	if cfg.N < 2 {
		return fmt.Errorf("baseline: need N >= 2, got %d", cfg.N)
	}
	if cfg.K < 1 {
		return fmt.Errorf("baseline: need K >= 1, got %d", cfg.K)
	}
	if cfg.Assignment != nil && len(cfg.Assignment) != cfg.N {
		return fmt.Errorf("baseline: assignment length %d != N %d", len(cfg.Assignment), cfg.N)
	}
	if cfg.MaxRounds <= 0 {
		cfg.MaxRounds = 200 * cfg.K * intLog2(cfg.N)
	}
	if cfg.RecordEvery <= 0 {
		cfg.RecordEvery = 1
	}
	if cfg.Eps <= 0 {
		l := float64(intLog2(cfg.N))
		cfg.Eps = 1 / (l * l)
	}
	tp, err := topo.OrComplete(cfg.Topo, cfg.N)
	if err != nil {
		return fmt.Errorf("baseline: %w", err)
	}
	cfg.Topo = tp
	return nil
}

func intLog2(n int) int {
	l := 0
	for v := n; v > 1; v >>= 1 {
		l++
	}
	if l == 0 {
		l = 1
	}
	return l
}

// startRounds sets a round-based run up: the initial opinions, the
// adversary and crash set, the step stream, the recorder and the survivor
// tally. A resumed run restores its state from cfg.Ckpt and res.Rounds; a
// fresh one records its first point. It returns the scheduler tick to
// resume after, 0 on a fresh run; perTick is the ticks per recorded time
// unit.
func startRounds(rule Rule, cfg *Config, perTick int) (*roundsState, *Result, int, error) {
	rng := xrand.New(cfg.Seed)
	cols, initial, plurality := opinion.Initial(cfg.N, cfg.K, cfg.Assignment, cfg.Alpha, rng)
	adv, err := adversary.Start(cfg.Adv, cfg.N, initial, false)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("baseline: %w", err)
	}
	st := &roundsState{perTick: perTick, k: cfg.K, cols: cols, stepRNG: rng.SplitNamed("steps"),
		rule: rule, rec: metrics.NewRecorder(cfg.Eps, cfg.DiscardTrajectory, cfg.Observe),
		adv: adv, crash: adversary.Crashes{Alive: cfg.N}, plurality: plurality}
	if adv != nil {
		st.crash = adversary.NewCrashes(cfg.N)
	}
	res := &Result{Rule: rule.Name(), InitialPlurality: plurality}
	tick, restoring := 0, cfg.Ckpt.Restoring()
	if restoring {
		if tick, res.Rounds, err = st.restore(cfg.Ckpt.Restore, cfg.Ckpt.Perturb); err != nil {
			return nil, nil, 0, err
		}
	}
	// tally[o+1] counts the survivors holding opinion o and tally[0] the
	// undecided ones, so a new opinion is tallied without a branch.
	st.tally = make([]int, cfg.K+1)
	st.counts = st.tally[1:]
	for v, o := range st.cols {
		if adv == nil || !st.crash.Down[v] {
			st.tally[o+1]++
		}
	}
	if !restoring {
		st.record(0)
	}
	return st, res, tick, nil
}

// record appends the survivors' point at time t.
func (st *roundsState) record(t float64) {
	st.rec.Append(metrics.SnapshotCounts(t, st.counts, st.crash.Alive, st.plurality))
}

// finish reports the run over the survivors' counts.
func (st *roundsState) finish(res *Result) *Result {
	res.FinalCounts = st.counts
	res.Trajectory = st.rec.Trajectory()
	res.Outcome = st.rec.Outcome(st.counts, st.crash.Alive, st.plurality)
	if st.adv != nil {
		res.AdvCounters = st.adv.Counters
	}
	return res
}

// RunSync drives the rule in synchronous rounds: every node samples and
// updates simultaneously against the previous round's state.
func RunSync(rule Rule, cfg Config) (*Result, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	st, res, tick, err := startRounds(rule, &cfg, 1)
	if err != nil {
		return nil, err
	}
	cols, next := st.cols, make([]opinion.Opinion, cfg.N)
	stepRNG, tally, adv, crash := st.stepRNG, st.tally, st.adv, &st.crash
	due := cfg.Ckpt.Due()
	nSamples := rule.Samples()
	samples := make([]opinion.Opinion, nSamples)
	bs := topo.Batch(cfg.Topo)
	sc := cfg.scratch()
	var kern *syncKernel
	if adv == nil {
		kern = newSyncKernel(rule, cfg.Topo)
	}
	// Nodes per batch-draw chunk: all of a chunk's sample draws go through
	// one SampleNeighbors call (one FillInt32n in kern), consuming the
	// stream exactly as the historical per-node scalar loop.
	chunk := 2048
	if nSamples > 0 {
		chunk = 4096 / nSamples
	}
	for round := tick + 1; round <= cfg.MaxRounds; round++ {
		if cfg.cancelled() {
			return nil, cfg.Ctx.Err()
		}
		if adv != nil {
			crash.Apply(adv, float64(round), nil)
		}
		// The round recounts the survivors as it writes their opinions.
		clear(tally)
		for base := 0; base < cfg.N; base += chunk {
			m := chunk
			if base+m > cfg.N {
				m = cfg.N - base
			}
			vs, out := sc.Buffers(m * nSamples)
			if kern != nil {
				stepRNG.FillInt32n(kern.bound, out)
				kern.apply(cols, next, tally, base, out)
				continue
			}
			for i := 0; i < m; i++ {
				for s := 0; s < nSamples; s++ {
					vs[i*nSamples+s] = int32(base + i)
				}
			}
			bs.SampleNeighbors(stepRNG, vs, out)
			for i := 0; i < m; i++ {
				v := base + i
				if adv != nil {
					next[v] = cols[v]
					if observe(adv, crash.Down, cols, v, out[i*nSamples:(i+1)*nSamples], samples) {
						next[v] = rule.Update(cols[v], samples)
					}
					if crash.Down[v] {
						continue
					}
				} else {
					for s := 0; s < nSamples; s++ {
						samples[s] = cols[out[i*nSamples+s]]
					}
					next[v] = rule.Update(cols[v], samples)
				}
				tally[next[v]+1]++
			}
		}
		cols, next = next, cols
		res.Rounds = round
		done := st.counts.Unanimous(st.crash.Alive)
		if round%cfg.RecordEvery == 0 || done {
			st.record(float64(round))
		}
		if ck := cfg.Ckpt; !done && float64(round) >= due {
			ck.Sink(st.capture(round, res.Rounds, cols), float64(round), 0)
			if ck.Halt {
				break
			}
			due = ck.Next(float64(round))
		}
		if done {
			break
		}
	}
	return st.finish(res), nil
}

// syncKernel is RunSync's honest round on the complete graph and on regular
// graphs, with the graph resolved once per run and the rule once per chunk,
// never per node. A chunk takes its raw draws in one FillInt32n, as
// SampleNeighbors would, and the apply loop maps each draw to its neighbour
// and applies the rule inline: no vs array, transform pass, sample copy or
// interface call. Adversarial runs, other graphs and third-party rules keep
// the generic loop.
type syncKernel struct {
	rule    Rule
	bound   int32     // draws are Intn(bound): n-1, or the regular degree
	rows    topo.Rows // a regular graph's neighbour rows
	regular bool
}

// newSyncKernel returns the fast round for rule on g, or nil when either
// is outside its reach.
func newSyncKernel(rule Rule, g topo.Sampler) *syncKernel {
	switch rule.(type) {
	case PullVoting, Undecided, TwoChoices, *ThreeMajority:
	default:
		return nil
	}
	k := &syncKernel{rule: rule}
	switch g := g.(type) {
	case *topo.Complete:
		k.bound = int32(g.Size() - 1)
	case *topo.AdjGraph:
		k.rows, k.bound = g.Regular()
		k.regular = k.bound > 0
	}
	if k.bound == 0 {
		return nil
	}
	return k
}

// at maps node v's raw draw u to its neighbour.
func (k *syncKernel) at(v, u int32) int32 {
	if k.regular {
		return k.rows.Neighbor(v, u)
	}
	return topo.CompleteNeighbor(v, u)
}

// apply runs the rule for the chunk of nodes from base whose raw draws,
// Samples() per node, are draws, and tallies each new opinion o in
// tally[o+1].
func (k *syncKernel) apply(cols, next []opinion.Opinion, tally []int, base int, draws []int32) {
	v := int32(base)
	switch r := k.rule.(type) {
	case PullVoting:
		for _, u := range draws {
			o := pull(cols[v], cols[k.at(v, u)])
			next[v] = o
			tally[o+1]++
			v++
		}
	case Undecided:
		for _, u := range draws {
			o := undecided(cols[v], cols[k.at(v, u)])
			next[v] = o
			tally[o+1]++
			v++
		}
	case TwoChoices:
		for i := 0; i+1 < len(draws); i, v = i+2, v+1 {
			o := twoChoices(cols[v], cols[k.at(v, draws[i])], cols[k.at(v, draws[i+1])])
			next[v] = o
			tally[o+1]++
		}
	case *ThreeMajority:
		for i := 0; i+2 < len(draws); i, v = i+3, v+1 {
			o := threeMajority(cols[k.at(v, draws[i])], cols[k.at(v, draws[i+1])],
				cols[k.at(v, draws[i+2])], r.R)
			next[v] = o
			tally[o+1]++
		}
	}
}

// RunSequential drives the rule with the population-protocol scheduler: each
// interaction picks one node uniformly at random, which samples and updates
// immediately (asynchronous, sequentially consistent). Time is reported in
// parallel rounds of n interactions.
func RunSequential(rule Rule, cfg Config) (*Result, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	st, res, tick, err := startRounds(rule, &cfg, cfg.N)
	if err != nil {
		return nil, err
	}
	cols, stepRNG, tally, adv, crash := st.cols, st.stepRNG, st.tally, st.adv, &st.crash
	// A crashed node leaves the survivor tally with its frozen opinion and
	// a recovered one comes back with it.
	noteCrash := func(v int, down bool) {
		if down {
			tally[cols[v]+1]--
		} else {
			tally[cols[v]+1]++
		}
	}
	due := cfg.Ckpt.Due()
	nSamples := rule.Samples()
	samples := make([]opinion.Opinion, nSamples)
	bs := topo.Batch(cfg.Topo)
	sc := cfg.scratch()
	maxInteractions := cfg.MaxRounds * cfg.N
	for it := tick + 1; it <= maxInteractions; it++ {
		if it%cfg.N == 0 && cfg.cancelled() {
			return nil, cfg.Ctx.Err()
		}
		// The activated node's draw and its own update feed the next
		// interaction's reads, so batching stops at the interaction
		// boundary: one bulk call for the S sample draws.
		if adv != nil {
			crash.Apply(adv, float64(it)/float64(cfg.N), noteCrash)
		}
		v := stepRNG.Intn(cfg.N)
		vs, out := sc.Buffers(nSamples)
		for i := range vs {
			vs[i] = int32(v)
		}
		bs.SampleNeighbors(stepRNG, vs, out)
		act := true
		if adv != nil {
			act = observe(adv, crash.Down, cols, v, out, samples)
		} else {
			for i := range samples {
				samples[i] = cols[out[i]]
			}
		}
		if act {
			o := rule.Update(cols[v], samples)
			tally[cols[v]+1]--
			tally[o+1]++
			cols[v] = o
		}
		done := false
		if it%(cfg.RecordEvery*cfg.N) == 0 {
			round := float64(it) / float64(cfg.N)
			res.Rounds = int(round)
			st.record(round)
			done = st.counts.Unanimous(st.crash.Alive)
		}
		if ck := cfg.Ckpt; !done && float64(it) >= due*float64(cfg.N) {
			at := float64(it) / float64(cfg.N)
			ck.Sink(st.capture(it, res.Rounds, cols), at, 0)
			if ck.Halt {
				break
			}
			due = ck.Next(at)
		}
		if done {
			break
		}
	}
	return st.finish(res), nil
}
