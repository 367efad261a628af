package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"slices"
	"time"

	"plurality"
	"plurality/internal/baseline"
	"plurality/internal/cluster"
	"plurality/internal/core/leader"
	"plurality/internal/core/noleader"
	"plurality/internal/core/syncgen"
	"plurality/internal/metrics"
	"plurality/internal/opinion"
	"plurality/internal/server"
	"plurality/internal/sim"
	"plurality/internal/topo"
	"plurality/internal/xrand"
)

// declared is one metric of BENCHMARK.json. For a per-layer metric, moves
// names the end-to-end metric and workload a change to that layer should
// move.
type declared struct {
	name, unit, better, moves string
}

// endToEnd lists, in output order, the metrics every untraced run reports
// for its workload.
var endToEnd = []declared{
	{name: "setup_s", unit: "s", better: "lower"},
	{name: "op_s.min", unit: "s", better: "lower"},
	{name: "work_per_s.max", unit: "1/s", better: "higher"},
}

// perLayer lists, in output order, the metrics a traced run reports. Each
// comes from calling the layer's own function directly, with the inputs
// the workloads give it.
var perLayer = []declared{
	{"opinion.assign_s", "s", "lower", "setup_s and op_s.min on leader-2e4 and sync-sweep-1e5"},
	{"sim.ladder_ns_per_event", "ns", "lower", "work_per_s.max on leader-2e4 and decentralized-1e4"},
	{"sim.clocks_ns_per_tick", "ns", "lower", "work_per_s.max on leader-2e4"},
	{"topo.sample_ns.complete", "ns", "lower", "work_per_s.max on leader-2e4 and sync-sweep-1e5"},
	{"topo.sample_ns.rr8", "ns", "lower", "work_per_s.max on served-runs"},
	{"topo.build_s.rr8", "s", "lower", "op_s.min and work_per_s.max on served-runs"},
	{"cluster.form_s", "s", "lower", "op_s.min and work_per_s.max on decentralized-1e4"},
	{"cluster.form_vtime", "steps", "lower", "op_s.min on decentralized-1e4"},
	{"cluster.leaders", "count", "lower", "op_s.min on decentralized-1e4"},
	{"noleader.run_s", "s", "lower", "op_s.min on decentralized-1e4"},
	{"noleader.consensus_s", "s", "lower", "op_s.min and work_per_s.max on decentralized-1e4"},
	{"noleader.events", "count", "lower", "work_per_s.max on decentralized-1e4"},
	{"noleader.peak_heap_mb", "MB", "lower", "op_s.min on decentralized-1e4"},
	{"leader.run_s", "s", "lower", "op_s.min on leader-2e4"},
	{"leader.events_per_s", "1/s", "higher", "work_per_s.max on leader-2e4"},
	{"leader.events", "count", "lower", "work_per_s.max on leader-2e4"},
	{"leader.peak_heap_mb", "MB", "lower", "op_s.min on leader-2e4"},
	{"syncgen.run_s.k4", "s", "lower", "op_s.min on sync-sweep-1e5"},
	{"syncgen.run_s.k16", "s", "lower", "op_s.min on sync-sweep-1e5"},
	{"syncgen.rounds.k4", "count", "lower", "work_per_s.max on sync-sweep-1e5"},
	{"syncgen.rounds.k16", "count", "lower", "work_per_s.max on sync-sweep-1e5"},
	{"syncgen.peak_heap_mb", "MB", "lower", "op_s.min on sync-sweep-1e5"},
	{"harness.parallel_eff", "ratio", "higher", "op_s.min and work_per_s.max on sync-sweep-1e5, once it sweeps on more than one worker"},
	{"baseline.run_s.rr8", "s", "lower", "work_per_s.max on served-runs"},
	{"api.canonical_bytes_us.sync", "us", "lower", "op_s.min on served-runs"},
	{"api.canonical_bytes_us.rr8", "us", "lower", "op_s.min and work_per_s.max on served-runs"},
	{"api.result_json_us", "us", "lower", "work_per_s.max on served-runs"},
	{"snap.encode_s.sync", "s", "lower", "work_per_s.max on served-runs"},
	{"snap.decode_s.sync", "s", "lower", "work_per_s.max on served-runs"},
	{"snap.resume_s.sync", "s", "lower", "work_per_s.max on served-runs"},
	{"snap.blob_bytes.sync", "B", "lower", "work_per_s.max on served-runs"},
	{"snap.encode_s.leader", "s", "lower", "none yet: no workload checkpoints a leader run"},
	{"snap.decode_s.leader", "s", "lower", "none yet: no workload checkpoints a leader run"},
	{"snap.resume_s.leader", "s", "lower", "none yet: no workload checkpoints a leader run"},
	{"snap.blob_bytes.leader", "B", "lower", "none yet: no workload checkpoints a leader run"},
	{"server.cache_get_us", "us", "lower", "op_s.min on served-runs"},
	{"server.cache_put_us", "us", "lower", "work_per_s.max on served-runs"},
	{"server.hit_s.p50", "s", "lower", "op_s.min on served-runs"},
	{"server.miss_s.p50", "s", "lower", "work_per_s.max on served-runs"},
	{"server.hit_ratio", "ratio", "higher", "work_per_s.max on served-runs"},
	{"server.segments_per_miss", "ratio", "lower", "work_per_s.max on served-runs"},
	{"server.busy_frac", "ratio", "lower", "op_s.min on served-runs"},
	{"server.peak_heap_mb", "MB", "lower", "op_s.min on served-runs"},
	{"load.latency_s.tail", "s", "lower", "op_s.min on served-runs (from the probe's open loop)"},
	{"load.late_s.tail", "s", "lower", "none: the health of the probe's load generator"},
	{"load.max_ok_rate", "req/s", "higher", "work_per_s.max on served-runs"},
	{"trace.overhead_ratio", "ratio", "lower", "none: tracing is off in the end-to-end runs"},
}

// probe is what a layer probe runs with: the inputs, the tracer and the
// sink for the per-layer values it measures.
type probe struct {
	e   env
	tr  *tracer
	log io.Writer
	val map[string]float64
	// servedRatio is the traced over the untraced median request latency
	// of the served probe: served-runs' tracing overhead.
	servedRatio float64
}

func (p *probe) put(name string, v float64) { p.val[name] = v }

var probes = []struct {
	name string
	run  func(ctx context.Context, p *probe) error
}{
	{"opinion", probeOpinion},
	{"sim.ladder", probeLadder},
	{"sim.clocks", probeClocks},
	{"topo", probeTopo},
	{"decentralized", probeDecentralized},
	{"leader", probeLeader},
	{"sync", probeSync},
	{"serving", probeServing},
	{"served", probeServed},
}

// tracedPass measures every per-layer metric once, and the tracing
// overhead of each selected workload: one of its operations untraced and
// once inside a span (served-runs alternates traced and untraced requests
// inside the served probe instead). Each ratio rests on one operation, so
// trace.overhead_ratio is their median, not the largest.
func tracedPass(ctx context.Context, e env, ws []workload, tr *tracer, log io.Writer) (*report, error) {
	rep := &report{}
	p := &probe{e: e, tr: tr, log: log, val: map[string]float64{}}
	var ratios []float64
	for _, w := range ws {
		if w.overhead == nil {
			continue
		}
		rep.Attempted++
		untraced, traced, err := w.overhead(ctx, e, tr)
		if err != nil {
			rep.fail("%s overhead: %v", w.name, err)
			continue
		}
		ratios = append(ratios, traced/untraced)
		fmt.Fprintf(log, "# %s op traced %.4f s, untraced %.4f s\n", w.name, traced, untraced)
	}
	for _, pr := range probes {
		rep.Attempted++
		runtime.GC()
		if err := pr.run(ctx, p); err != nil {
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			rep.fail("%s probe: %v", pr.name, err)
		}
	}
	if p.servedRatio > 0 && slices.ContainsFunc(ws, func(w workload) bool { return w.overhead == nil }) {
		ratios = append(ratios, p.servedRatio)
	}
	if len(ratios) > 0 {
		p.put("trace.overhead_ratio", median(ratios))
	}
	for _, d := range perLayer {
		v, ok := p.val[d.name]
		if !ok {
			v = math.NaN()
		}
		rep.add(d.name, v, d.unit, "moves "+d.moves)
	}
	return rep, nil
}

func probeOpinion(_ context.Context, p *probe) error {
	spec := leaderSpec(p.e.sc, p.e.seed, 0)
	spec.N = p.e.sc.probeN
	root := p.tr.begin(0, "opinion")
	defer p.tr.end(root)
	var secs []float64
	for range 5 {
		sec, _ := p.tr.timed(root, "opinion.PlantedBias", func() error {
			opinion.PlantedBias(spec.N, spec.K, spec.Alpha, xrand.New(spec.Seed).SplitNamed("assignment"))
			return nil
		})
		secs = append(secs, sec)
	}
	p.put("opinion.assign_s", median(secs))
	return nil
}

// eventFunc adapts a function to sim.EventHandler.
type eventFunc func(sim.Event)

func (f eventFunc) HandleEvent(ev sim.Event) { f(ev) }

// probeLadder is the classic hold model over the event ladder: the pending
// set holds as many events as a leader run at the probe size reserves for
// (3n), and every pop schedules one replacement at an Exp(1) delay.
func probeLadder(_ context.Context, p *probe) error {
	pending := 3 * p.e.sc.probeN
	s := sim.New()
	r := xrand.New(derive(p.e.seed, "hold", 0))
	s.SetHandler(eventFunc(func(ev sim.Event) { s.ScheduleAfter(r.Exp(1), ev) }))
	root := p.tr.begin(0, "sim.ladder")
	defer p.tr.end(root)
	p.tr.timed(root, "sim.Schedule", func() error {
		s.Reserve(pending + 64)
		for i := range pending {
			s.Schedule(r.Exp(1), sim.Event{Node: int32(i)})
		}
		return nil
	})
	sec, _ := p.tr.timed(root, "sim.Step", func() error {
		for range pending {
			s.Step()
		}
		return nil
	})
	if s.Processed() != uint64(pending) || s.Pending() != pending {
		return fmt.Errorf("hold model processed %d with %d pending, want %d and %d", s.Processed(), s.Pending(), pending, pending)
	}
	p.put("sim.ladder_ns_per_event", sec*1e9/float64(pending))
	return nil
}

// probeClocks runs n Poisson clocks, as the leader engine does, for 2n
// ticks: two per clock on average.
func probeClocks(_ context.Context, p *probe) error {
	n := p.e.sc.probeN
	s := sim.New()
	var clocks *sim.Clocks
	tick := func(int) {}
	s.SetHandler(eventFunc(func(ev sim.Event) { clocks.Fire(ev.Node, tick) }))
	root := p.tr.begin(0, "sim.clocks")
	defer p.tr.end(root)
	p.tr.timed(root, "sim.NewClocks", func() error {
		s.Reserve(n + 64)
		clocks = sim.NewClocks(s, xrand.New(derive(p.e.seed, "clocks", 0)), n, 1, 0)
		clocks.StartAll()
		return nil
	})
	sec, _ := p.tr.timed(root, "sim.Clocks.Fire", func() error {
		for range 2 * n {
			s.Step()
		}
		return nil
	})
	if clocks.Ticks() != uint64(2*n) {
		return fmt.Errorf("%d ticks fired, want %d", clocks.Ticks(), 2*n)
	}
	p.put("sim.clocks_ns_per_tick", sec*1e9/float64(clocks.Ticks()))
	return nil
}

// probeTopo samples neighbors in 2048-node chunks, as the engines do, on
// the complete graph at the probe size and on the random-regular graph of
// the served 3-majority spec, and times that graph's construction.
func probeTopo(_ context.Context, p *probe) error {
	root := p.tr.begin(0, "topo")
	defer p.tr.end(root)
	samples := 2 * p.e.sc.probeN
	sample := func(name string, g topo.Sampler) (float64, error) {
		r := xrand.New(derive(p.e.seed, name, 0))
		vs, out := make([]int32, 2048), make([]int32, 2048)
		n, v, drawn := g.Size(), 0, 0
		sec, _ := p.tr.timed(root, name, func() error {
			for drawn < samples {
				for i := range vs {
					vs[i] = int32(v)
					if v++; v == n {
						v = 0
					}
				}
				topo.SampleNeighbors(g, r, vs, out)
				drawn += len(vs)
			}
			return nil
		})
		for i, u := range out {
			if u < 0 || int(u) >= n || u == vs[i] {
				return 0, fmt.Errorf("%s: node %d sampled %d", name, vs[i], u)
			}
		}
		return sec * 1e9 / float64(drawn), nil
	}
	ns, err := sample("topo.SampleNeighbors.complete", topo.NewComplete(p.e.sc.probeN))
	if err != nil {
		return err
	}
	p.put("topo.sample_ns.complete", ns)

	_, spec := missSpec(p.e.sc, 1, derive(p.e.seed, "pool", 1))
	var g *topo.AdjGraph
	sec, err := p.tr.timed(root, "topo.NewRandomRegular", func() error {
		var err error
		g, err = topo.NewRandomRegular(spec.N, spec.Topology.Degree, graphSeed(spec))
		return err
	})
	if err != nil {
		return err
	}
	p.put("topo.build_s.rr8", sec)
	if ns, err = sample("topo.SampleNeighbors.rr8", g); err != nil {
		return err
	}
	p.put("topo.sample_ns.rr8", ns)
	return nil
}

// graphSeed is the construction seed the library derives for a random
// graph from the run seed.
func graphSeed(spec plurality.Spec) uint64 {
	return xrand.New(spec.Seed).SplitNamed("topology").Uint64()
}

// probeDecentralized runs decentralized-1e4's first input through
// noleader.Run and, separately, its formation through cluster.Form with the
// seed noleader.Run derives; the consensus share is the difference.
func probeDecentralized(ctx context.Context, p *probe) error {
	spec := decentralizedSpec(p.e.sc, p.e.seed, 0)
	root := p.tr.begin(0, "decentralized")
	defer p.tr.end(root)
	var res *noleader.Result
	heap := sampleHeap()
	runSec, err := p.tr.timed(root, "noleader.Run", func() error {
		var err error
		res, err = noleader.Run(noleader.Config{
			N: spec.N, K: spec.K, Alpha: spec.Alpha, Latency: sim.ExpLatency{Rate: 1},
			Topo: topo.NewComplete(spec.N), MaxTime: spec.MaxTime, Seed: spec.Seed,
			Ctx: ctx, DiscardTrajectory: true,
		})
		return err
	})
	peak := heap.finish()
	if err != nil {
		return err
	}
	var cl *cluster.Clustering
	formSec, err := p.tr.timed(root, "cluster.Form", func() error {
		var err error
		cl, err = cluster.Form(cluster.Params{
			N: spec.N, Latency: sim.ExpLatency{Rate: 1}, Topo: topo.NewComplete(spec.N),
			Seed: xrand.New(spec.Seed).SplitNamed("clustering").Uint64(), Ctx: ctx,
		})
		return err
	})
	if err != nil {
		return err
	}
	if res.Clustering.EndTime != cl.EndTime || len(res.Clustering.Leaders) != len(cl.Leaders) {
		return fmt.Errorf("cluster.Form (t=%g, %d leaders) differs from the run's formation (t=%g, %d leaders)",
			cl.EndTime, len(cl.Leaders), res.Clustering.EndTime, len(res.Clustering.Leaders))
	}
	if err := checkInternal(spec, res.FinalCounts, res.Outcome, res.TimedOut, res.EndTime); err != nil {
		return err
	}
	if pf := cl.ParticipatingFrac(); pf < 0.95 {
		return fmt.Errorf("participating fraction %.4f < 0.95", pf)
	}
	p.put("cluster.form_s", formSec)
	p.put("cluster.form_vtime", cl.EndTime)
	p.put("cluster.leaders", float64(len(cl.ParticipatingLeaders())))
	p.put("noleader.run_s", runSec)
	p.put("noleader.consensus_s", runSec-formSec)
	p.put("noleader.events", float64(res.Events))
	p.put("noleader.peak_heap_mb", peak)
	return nil
}

// checkInternal applies checkResult's rules to an engine's own result.
func checkInternal(spec plurality.Spec, counts []int, out metrics.Outcome, timedOut bool, end float64) error {
	return checkResult(spec, &plurality.Result{FinalCounts: counts, PluralityWon: out.PluralityWon,
		FullConsensus: out.FullConsensus, TimedOut: timedOut, Duration: end})
}

// probeLeader runs leader-2e4's first input through leader.Run, then
// checkpoints the same run halfway and resumes it, which must reproduce
// the uninterrupted run.
func probeLeader(ctx context.Context, p *probe) error {
	spec := leaderSpec(p.e.sc, p.e.seed, 0)
	root := p.tr.begin(0, "leader")
	defer p.tr.end(root)
	var res *leader.Result
	heap := sampleHeap()
	sec, err := p.tr.timed(root, "leader.Run", func() error {
		var err error
		res, err = leader.Run(leader.Config{
			N: spec.N, K: spec.K, Alpha: spec.Alpha, Latency: sim.ExpLatency{Rate: 1},
			Topo: topo.NewComplete(spec.N), MaxTime: spec.MaxTime, Seed: spec.Seed,
			Ctx: ctx, DiscardTrajectory: true,
		})
		return err
	})
	peak := heap.finish()
	if err != nil {
		return err
	}
	if err := checkInternal(spec, res.FinalCounts, res.Outcome, res.TimedOut, res.EndTime); err != nil {
		return err
	}
	p.put("leader.run_s", sec)
	p.put("leader.peak_heap_mb", peak)
	p.put("leader.events", float64(res.Events))
	p.put("leader.events_per_s", float64(res.Events)/sec)
	resumed, err := snapshotRoundtrip(ctx, p, root, "leader", "leader", spec, spec.MaxTime/2)
	if err != nil {
		return err
	}
	if resumed.Stats["events"] != float64(res.Events) || !slices.Equal(resumed.FinalCounts, res.FinalCounts) {
		return fmt.Errorf("resumed run (%g events, counts %v) differs from the uninterrupted one (%d events, counts %v)",
			resumed.Stats["events"], resumed.FinalCounts, res.Events, res.FinalCounts)
	}
	return nil
}

// snapshotRoundtrip runs spec halted at `at`, encodes, decodes and resumes
// the snapshot, and records the codec's per-layer values under suffix.
func snapshotRoundtrip(ctx context.Context, p *probe, parent int, suffix, protocol string, spec plurality.Spec, at float64) (*plurality.Result, error) {
	capture := spec
	capture.Checkpoint = plurality.CheckpointSpec{SnapshotAt: at, Halt: true}
	var halted *plurality.Result
	if _, err := p.tr.timed(parent, protocol+".capture", func() error {
		var err error
		halted, err = plurality.Run(ctx, protocol, capture)
		return err
	}); err != nil {
		return nil, err
	}
	if halted.Snapshot == nil {
		return nil, fmt.Errorf("%s run ended before the snapshot at %g", protocol, at)
	}
	var blob []byte
	encSec, err := p.tr.timed(parent, "snap.Encode", func() error {
		var err error
		blob, err = halted.Snapshot.Encode()
		return err
	})
	if err != nil {
		return nil, err
	}
	var sn *plurality.Snapshot
	decSec, err := p.tr.timed(parent, "snap.Decode", func() error {
		var err error
		sn, err = plurality.DecodeSnapshot(blob)
		return err
	})
	if err != nil {
		return nil, err
	}
	var resumed *plurality.Result
	resSec, err := p.tr.timed(parent, "snap.Resume", func() error {
		var err error
		resumed, err = plurality.Resume(ctx, sn, &plurality.ResumeOptions{DiscardTrajectory: spec.DiscardTrajectory})
		return err
	})
	if err != nil {
		return nil, err
	}
	p.put("snap.encode_s."+suffix, encSec)
	p.put("snap.decode_s."+suffix, decSec)
	p.put("snap.resume_s."+suffix, resSec)
	p.put("snap.blob_bytes."+suffix, float64(len(blob)))
	return resumed, nil
}

// probeSync runs every job of sync-sweep-1e5's first sweep serially
// through syncgen.Run, then the sweep itself on every worker; the parallel
// efficiency is the serial job time over workers × sweep wall.
func probeSync(ctx context.Context, p *probe) error {
	cfg := sweepConfig(p.e, 0)
	cfg.Workers = p.e.workers
	plan, err := cfg.Plan()
	if err != nil {
		return err
	}
	root := p.tr.begin(0, "sync")
	defer p.tr.end(root)
	serial := 0.0
	rounds := make([]int, len(plan.Cells))
	heap := sampleHeap()
	defer heap.finish()
	for c, cell := range plan.Cells {
		var secs []float64
		for rep := range plan.Reps {
			spec := plan.JobSpec(c, rep)
			var res *syncgen.Result
			sec, err := p.tr.timed(root, "syncgen.Run", func() error {
				var err error
				res, err = syncgen.Run(syncgen.Config{
					N: spec.N, K: spec.K, Alpha: spec.Alpha, Seed: spec.Seed,
					Topo: topo.NewComplete(spec.N), Ctx: ctx, DiscardTrajectory: true,
				})
				return err
			})
			if err != nil {
				return err
			}
			if err := checkInternal(spec, res.FinalCounts, res.Outcome, false, float64(res.Steps)); err != nil {
				return err
			}
			secs = append(secs, sec)
			serial += sec
			rounds[c] += res.Steps
		}
		p.put(fmt.Sprintf("syncgen.run_s.k%d", cell.K), median(secs))
		p.put(fmt.Sprintf("syncgen.rounds.k%d", cell.K), float64(rounds[c]))
	}
	p.put("syncgen.peak_heap_mb", heap.take())
	var sw *plurality.SweepResult
	wall, err := p.tr.timed(root, "plurality.Sweep", func() error {
		var err error
		sw, err = plurality.Sweep(ctx, cfg)
		return err
	})
	if err != nil {
		return err
	}
	for c, cell := range sw.Cells {
		d := cell.Metrics["duration"]
		if got := int(math.Round(d.Mean * float64(d.N))); got != rounds[c] {
			return fmt.Errorf("k=%d: the sweep ran %d rounds, syncgen.Run %d", cell.K, got, rounds[c])
		}
	}
	p.put("harness.parallel_eff", serial/(float64(p.e.workers)*wall))
	return nil
}

// probeServing times the pieces of the server's compute and cache paths
// on the served-runs specs: the 3-majority run, the cache key, the result
// encoding, the checkpoint segment codec, and the result store.
func probeServing(ctx context.Context, p *probe) error {
	root := p.tr.begin(0, "serving")
	defer p.tr.end(root)
	_, syncSpec := missSpec(p.e.sc, 0, derive(p.e.seed, "pool", 0))
	_, majSpec := missSpec(p.e.sc, 1, derive(p.e.seed, "pool", 1))

	g, err := topo.NewRandomRegular(majSpec.N, majSpec.Topology.Degree, graphSeed(majSpec))
	if err != nil {
		return err
	}
	rule, err := baseline.NewRule("3-majority", xrand.New(majSpec.Seed).SplitNamed("rule"))
	if err != nil {
		return err
	}
	var bres *baseline.Result
	sec, err := p.tr.timed(root, "baseline.RunSync", func() error {
		var err error
		bres, err = baseline.RunSync(rule, baseline.Config{N: majSpec.N, K: majSpec.K, Alpha: majSpec.Alpha,
			Seed: majSpec.Seed, Topo: g, Ctx: ctx})
		return err
	})
	if err != nil {
		return err
	}
	if err := checkInternal(majSpec, bres.FinalCounts, bres.Outcome, false, float64(bres.Rounds)); err != nil {
		return err
	}
	p.put("baseline.run_s.rr8", sec)

	for _, c := range []struct {
		name string
		spec plurality.Spec
		reps int
	}{{"sync", syncSpec, 1000}, {"rr8", majSpec, 10}} {
		sec, err := p.tr.timed(root, "api.CanonicalBytes", func() error {
			for range c.reps {
				if _, err := c.spec.CanonicalBytes(); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		p.put("api.canonical_bytes_us."+c.name, sec*1e6/float64(c.reps))
	}

	res, err := plurality.Run(ctx, "sync", syncSpec)
	if err != nil {
		return err
	}
	blob, err := json.Marshal(res)
	if err != nil {
		return err
	}
	const marshals = 200
	sec, _ = p.tr.timed(root, "api.MarshalResult", func() error {
		for range marshals {
			json.Marshal(res)
		}
		return nil
	})
	p.put("api.result_json_us", sec*1e6/marshals)

	resumed, err := snapshotRoundtrip(ctx, p, root, "sync", "sync", syncSpec, 8)
	if err != nil {
		return err
	}
	if again, err := json.Marshal(resumed); err != nil || !bytes.Equal(again, blob) {
		return errors.New("a sync run resumed from its round-8 segment differs from the uninterrupted run")
	}

	dir, err := os.MkdirTemp("", "plurality-bench-cache-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	cache, err := server.NewCache(dir)
	if err != nil {
		return err
	}
	const entries = 200
	keys := make([]string, entries)
	for i := range keys {
		h := sha256.Sum256([]byte(fmt.Sprint(i)))
		keys[i] = hex.EncodeToString(h[:])
	}
	sec, err = p.tr.timed(root, "server.Cache.Put", func() error {
		for _, k := range keys {
			if err := cache.Put(k, blob); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	p.put("server.cache_put_us", sec*1e6/entries)
	sec, err = p.tr.timed(root, "server.Cache.Get", func() error {
		for _, k := range keys {
			if b, ok := cache.Get(k); !ok || !bytes.Equal(b, blob) {
				return fmt.Errorf("cache entry %s lost or changed", k)
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	p.put("server.cache_get_us", sec*1e6/entries)
	return nil
}

// probeServed drives served-runs traced: half a window at the operating
// point, then the rate ladder above it, stopping at the first step that
// breaks a limit. Ladder steps are the only operations allowed to fail.
func probeServed(ctx context.Context, p *probe) error {
	root := p.tr.begin(0, "served")
	defer p.tr.end(root)
	var s *served
	if _, err := p.tr.timed(root, "server.start", func() error {
		var err error
		s, err = startServed(ctx, p.e)
		return err
	}); err != nil {
		return err
	}
	defer s.close()
	heap := sampleHeap()
	stopWindows := heap.windows(time.Second)
	op, err := s.step(ctx, p.e, load{rate: rates[0], n: max(40, int(math.Round(rates[0]*p.e.seconds/2))), clients: p.e.workers}, p.tr)
	peaks := stopWindows()
	heap.finish()
	if err != nil {
		return err
	}
	if len(op.failures) > 0 {
		return fmt.Errorf("%d failed requests at the operating point: %s", len(op.failures), op.failures[0])
	}
	maxOK := 0.0
	if op.passes() {
		maxOK = rates[0]
		for i, rate := range rates[1:] {
			st, err := s.step(ctx, p.e, load{step: i + 1, rate: rate, n: max(1, int(math.Round(rate*p.e.sc.ladderSeconds))), clients: p.e.workers}, nil)
			if err != nil {
				return err
			}
			lat, _ := tail(st.lat)
			late, _ := tail(st.late)
			fmt.Fprintf(p.log, "# ladder %g req/s: %d failed, latency tail %.4f s, lateness tail %.4f s\n", rate, len(st.failures), lat, late)
			if !st.passes() {
				break
			}
			maxOK = rate
		}
	}
	latTail, _ := tail(op.lat)
	lateTail, _ := tail(op.late)
	p.put("server.hit_s.p50", median(op.hitLat))
	p.put("server.miss_s.p50", median(op.missLat))
	p.put("server.hit_ratio", op.hitRatio)
	p.put("server.segments_per_miss", op.segsPerMiss)
	p.put("server.busy_frac", op.busy)
	// The served heap goes through several collections a second, so the
	// median window peak is steadier than the single highest sample.
	p.put("server.peak_heap_mb", median(peaks))
	p.put("load.latency_s.tail", latTail)
	p.put("load.late_s.tail", lateTail)
	p.put("load.max_ok_rate", maxOK)
	p.servedRatio = median(op.tracedLat) / median(op.untracedLat)
	return nil
}
