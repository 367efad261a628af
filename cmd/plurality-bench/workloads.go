package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"time"

	"plurality"
	"plurality/internal/opinion"
	"plurality/internal/xrand"
)

// scale holds every input size of the benchmark. full is what the
// workloads measure; smoke shrinks everything to toy size for tests. Every
// spec at either scale satisfies the paper's bias precondition, which
// set-up checks (checkBias).
//
// The workloads' inputs are small, a peak heap of 3-7 MB, because the
// host's other tenants share its caches and memory bandwidth: median
// operation times at n=10⁵-10⁶ spread 0.25-0.44 between runs of ten seeds,
// and the fastest operation at these sizes 0.05-0.12 (README.md). The
// traced pass's opinion, event-ladder, clock and complete-graph probes keep
// the n=10⁶ size.
type scale struct {
	leaderN   int     // leader-2e4
	decN      int     // decentralized-1e4
	syncN     int     // sync-sweep-1e5
	syncKs    []int   // sync-sweep-1e5 grid; named k4 and k16 in the per-layer metrics
	syncAlpha float64 // sync-sweep-1e5 planted bias
	sweepReps int     // replications per sweep cell
	missSyncN int     // served-runs sync spec, k=16
	missMajN  int     // served-runs 3-majority spec on random-regular d=8
	hitPool   int     // served-runs specs computed during set-up
	probeN    int     // the opinion, event-ladder, clock and complete-graph probes
	// ladderSeconds is the length of each traced-pass ladder step.
	ladderSeconds float64
}

var (
	full = scale{
		leaderN: 20_000, decN: 10_000, syncN: 100_000,
		syncKs: []int{4, 16}, syncAlpha: 2, sweepReps: 4,
		missSyncN: 50_000, missMajN: 10_000, hitPool: 16,
		probeN: 1_000_000, ladderSeconds: 2,
	}
	smoke = scale{
		leaderN: 2_000, decN: 2_000, syncN: 20_000,
		syncKs: []int{4, 16}, syncAlpha: 8, sweepReps: 2,
		missSyncN: 50_000, missMajN: 2_000, hitPool: 8,
		probeN: 2_000, ladderSeconds: 0.2,
	}
)

const (
	// inputsPerWorkload is how many distinct inputs a simulation workload
	// generates; operation i runs input i mod inputsPerWorkload, so every
	// run covers many inputs. An operation that repeats an input must
	// reproduce its result byte for byte.
	inputsPerWorkload = 16
	// minOps is how many operations a simulation run performs at least;
	// result_digest covers the first minOps.
	minOps = 4
	// servedSetups is how many times served-runs sets up; setup_s is the
	// median.
	servedSetups = 5
	// maxWorkers bounds worker goroutines, client connections and
	// GOMAXPROCS, so runs on bigger hosts stay comparable.
	maxWorkers = 2
)

// env is what every workload is run with.
type env struct {
	sc      scale
	seed    uint64
	seconds float64
	workers int
}

// workload is one set of inputs the benchmark runs. measure performs the
// set-up and the timed phase of one untraced run.
type workload struct {
	name    string
	measure func(ctx context.Context, e env) (*report, error)
	// overhead runs one operation untraced and one traced and returns their
	// wall times; nil for served-runs, whose traced pass alternates traced
	// and untraced requests instead.
	overhead func(ctx context.Context, e env, tr *tracer) (untraced, traced float64, err error)
}

var workloads = []workload{
	{name: "leader-2e4", measure: measureSim(leaderOps), overhead: simOverhead(leaderOps)},
	{name: "decentralized-1e4", measure: measureSim(decentralizedOps), overhead: simOverhead(decentralizedOps)},
	{name: "sync-sweep-1e5", measure: measureSim(sweepOps), overhead: simOverhead(sweepOps)},
	{name: "served-runs", measure: measureServed},
}

// report is one workload's outcome in one set.
type report struct {
	Attempted  int      `json:"attempted"`
	Failed     int      `json:"failed"`
	FailedFrac float64  `json:"failed_frac"`
	Failures   []string `json:"failures,omitempty"`
	Digest     string   `json:"result_digest,omitempty"`
	Metrics    []metric `json:"metrics"`
}

type metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// Note qualifies the value: its sample count, or for a per-layer
	// metric the end-to-end metric it should move.
	Note string `json:"note,omitempty"`
}

// add records a metric; a value that could not be measured (NaN or
// infinite, e.g. a percentile of no samples) is a failure and reads 0.
func (r *report) add(name string, value float64, unit, note string) {
	if math.IsNaN(value) || math.IsInf(value, 0) {
		r.fail("%s: not measured", name)
		value = 0
	}
	r.Metrics = append(r.Metrics, metric{Name: name, Value: value, Unit: unit, Note: note})
}

func (r *report) fail(format string, args ...any) {
	r.Failed++
	r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
}

// derive maps (seed, label, i) to an independent run seed, so every input
// and arrival of the benchmark is a function of -seed alone.
func derive(seed uint64, label string, i int) uint64 {
	return xrand.New(seed ^ uint64(i+1)*0x9e3779b97f4a7c15).SplitNamed(label).Uint64()
}

func leaderSpec(sc scale, seed uint64, i int) plurality.Spec {
	return plurality.Spec{N: sc.leaderN, K: 4, Alpha: 2, MaxTime: 4,
		Seed: derive(seed, "leader", i), DiscardTrajectory: true}
}

func decentralizedSpec(sc scale, seed uint64, i int) plurality.Spec {
	return plurality.Spec{N: sc.decN, K: 4, Alpha: 2, MaxTime: 8,
		Seed: derive(seed, "decentralized", i), DiscardTrajectory: true}
}

// sweepConfig is sync-sweep-1e5's i-th sweep, on one worker. That was
// chosen for a steady time, not from use: over 29 interleaved 10 s windows
// the fastest sweep spread 0.29 on two workers and 0.135 on one, since
// two workers wait for both vCPUs to be free of the host's other load. The
// traced pass times the same sweep on every worker (harness.parallel_eff).
func sweepConfig(e env, i int) plurality.SweepConfig {
	return plurality.SweepConfig{
		Protocol: "sync",
		Base: plurality.Spec{N: e.sc.syncN, Alpha: e.sc.syncAlpha,
			Seed: derive(e.seed, "sweep", i), DiscardTrajectory: true},
		Ks: e.sc.syncKs, Reps: e.sc.sweepReps, Workers: 1,
		Metrics: sweepMetrics,
	}
}

// checkBias plants the assignment exactly as the protocol will — from the
// run seed's root stream, after the substreams the protocol draws before
// it — and checks the paper's precondition: the plurality opinion leads
// every other opinion by at least √n·ln n supporters.
func checkBias(spec plurality.Spec, drawnBefore ...string) error {
	root := xrand.New(spec.Seed)
	for _, label := range drawnBefore {
		root.SplitNamed(label)
	}
	a := opinion.PlantedBias(spec.N, spec.K, spec.Alpha, root.SplitNamed("assignment"))
	n := float64(spec.N)
	if gap, need := opinion.CountOf(a, spec.K).AdditiveGap(), math.Sqrt(n)*math.Log(n); float64(gap) < need {
		return fmt.Errorf("n=%d k=%d alpha=%g: plurality lead %d is below sqrt(n)*ln(n) = %.0f", spec.N, spec.K, spec.Alpha, gap, need)
	}
	return nil
}

// validateInput runs the library's own validation (CanonicalBytes rejects
// any spec Run would) and the bias precondition.
func validateInput(protocol string, spec plurality.Spec) error {
	if _, err := spec.CanonicalBytes(); err != nil {
		return err
	}
	if protocol == "decentralized" {
		return checkBias(spec, "clustering")
	}
	return checkBias(spec)
}

// checkResult verifies one run against what the paper guarantees for its
// spec. Every run accounts for all n nodes. A run with a time window must
// reach it with the initial plurality opinion ahead; any other run must end
// in full consensus on the initial plurality opinion.
func checkResult(spec plurality.Spec, res *plurality.Result) error {
	total := 0
	for _, c := range res.FinalCounts {
		total += c
	}
	if total != spec.N {
		return fmt.Errorf("final counts sum to %d, want n=%d", total, spec.N)
	}
	if spec.MaxTime > 0 && res.TimedOut {
		if res.Duration < spec.MaxTime {
			return fmt.Errorf("stopped at t=%g before the horizon %g", res.Duration, spec.MaxTime)
		}
		if !res.PluralityWon {
			return fmt.Errorf("winner %d at the horizon is not the initial plurality", res.Winner)
		}
		return nil
	}
	if !res.PluralityWon || !res.FullConsensus {
		return fmt.Errorf("no full consensus on the initial plurality (%s)", res)
	}
	return nil
}

// simOp runs one operation of a simulation workload and returns a summary
// of its output (hashed into result_digest) and the work it did.
type simOp func(ctx context.Context) (summary []byte, work float64, err error)

// simInputs generates and validates a simulation workload's inputs.
type simInputs func(e env) ([]simOp, error)

var (
	leaderOps        = runOps("leader", leaderSpec)
	decentralizedOps = runOps("decentralized", decentralizedSpec)
)

// runOps generates the inputs of a workload whose operation is one run of
// protocol on spec(sc, seed, i).
func runOps(protocol string, spec func(sc scale, seed uint64, i int) plurality.Spec) simInputs {
	return func(e env) ([]simOp, error) {
		ops := make([]simOp, inputsPerWorkload)
		for i := range ops {
			s := spec(e.sc, e.seed, i)
			if err := validateInput(protocol, s); err != nil {
				return nil, err
			}
			ops[i] = runOp(protocol, s)
		}
		return ops, nil
	}
}

// runOp is one run of an asynchronous protocol; its work is simulator
// events, and the wall time includes everything Run does (for the
// decentralized protocol, cluster formation).
func runOp(protocol string, spec plurality.Spec) simOp {
	return func(ctx context.Context) ([]byte, float64, error) {
		res, err := plurality.Run(ctx, protocol, spec)
		if err != nil {
			return nil, 0, err
		}
		if err := checkResult(spec, res); err != nil {
			return nil, 0, err
		}
		if pf, ok := res.Stats["participating_frac"]; ok && pf < 0.95 {
			return nil, 0, fmt.Errorf("participating fraction %.4f < 0.95", pf)
		}
		b, err := json.Marshal(res)
		return b, res.Stats["events"], err
	}
}

func sweepOps(e env) ([]simOp, error) {
	ops := make([]simOp, inputsPerWorkload)
	for i := range ops {
		cfg := sweepConfig(e, i)
		plan, err := cfg.Plan()
		if err != nil {
			return nil, err
		}
		for c := range plan.Cells {
			if err := validateInput("sync", plan.JobSpec(c, 0)); err != nil {
				return nil, err
			}
		}
		ops[i] = sweepOp(cfg)
	}
	return ops, nil
}

// sweepMetrics is the per-job measurement of sync-sweep-1e5: the standard
// outcome plus the node total, so every job is checked although Sweep
// returns only per-cell aggregates.
func sweepMetrics(res *plurality.Result) map[string]float64 {
	m := plurality.StandardMetrics(res)
	total := 0
	for _, c := range res.FinalCounts {
		total += c
	}
	m["final_total"] = float64(total)
	return m
}

// sweepOp is one sweep; its work is node-updates (rounds × n over jobs).
func sweepOp(cfg plurality.SweepConfig) simOp {
	return func(ctx context.Context) ([]byte, float64, error) {
		res, err := plurality.Sweep(ctx, cfg)
		if err != nil {
			return nil, 0, err
		}
		work := 0.0
		for _, c := range res.Cells {
			won, total, rounds := c.Metrics["plurality_won"], c.Metrics["final_total"], c.Metrics["duration"]
			if won.Min != 1 {
				return nil, 0, fmt.Errorf("k=%d: %d of %d jobs ended without full consensus on the initial plurality",
					c.K, int(math.Round((1-won.Mean)*float64(won.N))), won.N)
			}
			if total.Min != float64(c.N) || total.Max != float64(c.N) {
				return nil, 0, fmt.Errorf("k=%d: final counts sum to %g..%g, want n=%d", c.K, total.Min, total.Max, c.N)
			}
			work += math.Round(rounds.Mean*float64(rounds.N)) * float64(c.N)
		}
		b, err := json.Marshal(res.Cells)
		return b, work, err
	}
}

// measureSim returns the closed-loop measurement of a simulation workload:
// set-up generates and validates the inputs, then one operation at a time
// runs, each on the next input, until the window is spent and at least
// minOps have run. Set-up is repeated each time the operations come back to
// the first input, the repeats timed and discarded, and setup_s is the
// median: spread over the window, the repeats meet the same host conditions
// as the operations, where back-to-back repeats would all meet those of one
// moment.
//
// The operation metrics are the fastest operation and the highest rate of
// any operation, not medians. Other load on a shared host only ever slows an
// operation, and it comes and goes over tens of seconds to minutes, so a
// whole window's median moves with it while the best operation of the
// window does not (README.md, "Noise on this host").
func measureSim(inputs simInputs) func(ctx context.Context, e env) (*report, error) {
	return func(ctx context.Context, e env) (*report, error) {
		var setupSec []float64
		setUp := func() ([]simOp, error) {
			runtime.GC()
			start := time.Now()
			ops, err := inputs(e)
			setupSec = append(setupSec, time.Since(start).Seconds())
			if err != nil {
				return nil, fmt.Errorf("generating inputs: %w", err)
			}
			return ops, nil
		}
		ops, err := setUp()
		if err != nil {
			return nil, err
		}
		rep := &report{}
		digests := make([][]byte, len(ops))
		var allSec, okSec, rates []float64
		start := time.Now()
		for i := 0; ctx.Err() == nil; i++ {
			if i >= minOps && time.Since(start).Seconds()+median(allSec) > e.seconds {
				break
			}
			if i > 0 && i%len(ops) == 0 {
				if _, err := setUp(); err != nil {
					return nil, err
				}
			}
			runtime.GC()
			t := time.Now()
			sum, w, err := ops[i%len(ops)](ctx)
			sec := time.Since(t).Seconds()
			allSec = append(allSec, sec)
			rep.Attempted++
			d := sha256.Sum256(sum)
			switch prev := digests[i%len(ops)]; {
			case err != nil:
			case i < len(ops):
				digests[i] = d[:]
			case prev != nil && !bytes.Equal(prev, d[:]):
				err = fmt.Errorf("result differs from op %d, which ran the same input", i%len(ops))
			}
			if err != nil {
				rep.fail("op %d: %v", i, err)
				continue
			}
			okSec = append(okSec, sec)
			rates = append(rates, w/sec)
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		rep.Digest = digestOf(digests[:minOps])
		rep.add("setup_s", median(setupSec), "s", fmt.Sprintf("median of %d set-ups", len(setupSec)))
		rep.add("op_s.min", minOf(okSec), "s", fmt.Sprintf("%d OK ops, median %.4g s", len(okSec), median(okSec)))
		rep.add("work_per_s.max", maxOf(rates), "1/s", fmt.Sprintf("median %.4g", median(rates)))
		return rep, nil
	}
}

// simOverhead times one operation untraced and the same operation inside
// a span.
func simOverhead(inputs simInputs) func(ctx context.Context, e env, tr *tracer) (float64, float64, error) {
	return func(ctx context.Context, e env, tr *tracer) (float64, float64, error) {
		ops, err := inputs(e)
		if err != nil {
			return 0, 0, err
		}
		var untraced, traced float64
		for _, t := range []*tracer{nil, tr} {
			runtime.GC()
			sec, err := t.timed(0, "op", func() error {
				_, _, err := ops[0](ctx)
				return err
			})
			if err != nil {
				return 0, 0, err
			}
			if t == nil {
				untraced = sec
			} else {
				traced = sec
			}
		}
		return untraced, traced, nil
	}
}

// digestOf is SHA-256 over the ordered per-operation digests; a missing
// (failed) operation hashes as empty.
func digestOf(digests [][]byte) string {
	h := sha256.New()
	for _, d := range digests {
		h.Write(d)
	}
	return hex.EncodeToString(h.Sum(nil))
}
