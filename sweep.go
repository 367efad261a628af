package plurality

import (
	"context"
	"fmt"

	"plurality/internal/harness"
	"plurality/internal/stats"
	"plurality/internal/topo"
)

// newWorkerScratch builds the per-worker sampling workspace RunBatch and
// Sweep thread through the engines (see Spec.scratch).
func newWorkerScratch() any { return &topo.Scratch{} }

// RunMany executes reps seeded replications of one protocol in parallel
// (bounded by GOMAXPROCS) and returns the results in replication order:
// result i ran with spec.Seed + i and is identical to the corresponding
// single Run. The first error cancels the remaining replications.
func RunMany(ctx context.Context, name string, spec Spec, reps int) ([]*Result, error) {
	return RunBatch(ctx, name, spec, reps, 0)
}

// RunBatch is RunMany with an explicit worker bound. Replications are
// spread across a pool of `workers` goroutines (<= 0 means GOMAXPROCS, 1
// runs sequentially — each in-flight replication owns a full simulator, so
// the bound also caps peak memory). Every replication derives its own RNG
// stream from spec.Seed + i, and results are index-addressed, so the
// returned slice is deterministic and bit-identical for every worker count
// and goroutine interleaving. The first error — or ctx cancellation —
// cancels the remaining replications and is returned.
func RunBatch(ctx context.Context, name string, spec Spec, reps, workers int) ([]*Result, error) {
	if reps <= 0 {
		return nil, fmt.Errorf("plurality: RunBatch with reps=%d", reps)
	}
	p, err := Lookup(name)
	if err != nil {
		return nil, err
	}
	if err := spec.validate(); err != nil {
		return nil, err
	}
	results := make([]*Result, reps)
	err = harness.ForEachWorkersScratch(ctx, reps, workers, newWorkerScratch,
		func(ctx context.Context, i int, ws any) error {
			s := spec
			s.Seed = spec.Seed + uint64(i)
			s.scratch = ws.(*topo.Scratch)
			res, err := p.Run(ctx, s)
			if err != nil {
				return err
			}
			results[i] = res
			return nil
		})
	if err != nil {
		return nil, err
	}
	return results, nil
}

// Summary aggregates one metric over the replications of a sweep cell. Its
// JSON field names are the stable wire format of the serving layer.
type Summary struct {
	// N is the number of observations.
	N int `json:"n"`
	// Mean is the sample mean and SE its standard error.
	Mean float64 `json:"mean"`
	SE   float64 `json:"se"`
	// Min and Max bracket the observations.
	Min float64 `json:"min"`
	Max float64 `json:"max"`
}

func summarize(s *stats.Summary) Summary {
	return Summary{N: s.N(), Mean: s.Mean(), SE: s.SE(), Min: s.Min(), Max: s.Max()}
}

// SweepConfig describes a factor-grid sweep of one protocol.
type SweepConfig struct {
	// Protocol is the registered protocol name to run.
	Protocol string
	// Base is the Spec shared by every grid point; the grid axes override
	// its N, K and Alpha per cell, and replication r runs with seed
	// Base.Seed + r·10⁶ + 1 so cells reuse seeds but replications never
	// collide within one cell.
	Base Spec
	// Ns, Ks and Alphas are the grid axes; an empty axis means the single
	// value from Base.
	Ns     []int
	Ks     []int
	Alphas []float64
	// Topologies is the interaction-graph axis; an empty axis means the
	// single Base.Topology. With entries, every grid point runs once per
	// topology and the result table gains a "topology" label column.
	Topologies []TopologySpec
	// Adversaries is the fault-model axis; an empty axis means the single
	// Base.Adversary. With entries, every grid point runs once per
	// adversary and the result table gains an "adversary" label column
	// (AdversarySpec.Label form, e.g. "none" or "crash(f=0.3)"). Like every
	// axis, the aggregated results are worker-count-invariant.
	Adversaries []AdversarySpec
	// Reps is the number of seeded replications per grid point; default 5.
	Reps int
	// Workers bounds the shared worker pool the whole grid is executed on
	// (cells and replications are flattened into one job list, so a slow
	// cell no longer serializes the grid). <= 0 means GOMAXPROCS; 1 runs
	// the sweep sequentially. The aggregated results are bit-identical for
	// every worker count.
	Workers int
	// Metrics optionally maps each Result to named measurements. nil means
	// the standard set: duration, plurality_won (0/1 for plurality victory
	// with full consensus), eps_time (when ε-convergence was reached) and
	// consensus_time (when full consensus was reached).
	Metrics func(*Result) map[string]float64
	// WarmStart, when non-nil, turns the sweep into a warm-started
	// replication study: instead of running cells from scratch, every
	// replication resumes this shared prefix snapshot — replication 0 as
	// the bit-exact continuation, replication r > 0 with divergence label
	// r (ResumeOptions.Perturb) — so the common prefix is simulated once
	// and only the futures fan out. Protocol and Base are taken from the
	// snapshot; the structural axes (Ns, Ks, Alphas, Topologies) must be
	// empty, because a snapshot freezes N, K, the assignment and the
	// graph.
	WarmStart *Snapshot
}

// SweepCell is one grid point's aggregated outcome. Its JSON field names
// are the stable wire format of the serving layer: one marshalled SweepCell
// is one NDJSON line of a pluralityd sweep stream.
type SweepCell struct {
	// N, K and Alpha locate the cell in the grid.
	N     int     `json:"n"`
	K     int     `json:"k"`
	Alpha float64 `json:"alpha"`
	// Topology is the interaction graph of the cell (TopologySpec.Label
	// form, e.g. "complete" or "torus(32x32)").
	Topology string `json:"topology"`
	// Adversary is the fault model of the cell (AdversarySpec.Label form,
	// e.g. "none" or "crash(f=0.3)").
	Adversary string `json:"adversary"`
	// Metrics holds the aggregated measurements of the cell.
	Metrics map[string]Summary `json:"metrics"`
}

// PlannedCell is one grid point of a SweepPlan: its coordinates, the
// display labels of the graph and fault model it actually runs, and the
// validated Spec its replications execute (Seed set per replication through
// SweepPlan.JobSpec).
type PlannedCell struct {
	// N, K and Alpha locate the cell in the grid.
	N, K  int
	Alpha float64
	// Topology and Adversary are the cell's display labels
	// (TopologySpec.ResolvedLabel / AdversarySpec.Label form), identical to
	// the ones the aggregated SweepCell will carry.
	Topology, Adversary string
	// Spec is the cell's run configuration; its Seed is replication 0's
	// (the seed the cell was validated under).
	Spec Spec
}

// SweepPlan is the deterministic flattened form of a SweepConfig: every
// grid cell enumerated and validated up front, in grid order (n-major, then
// k, alpha, topology, adversary). The plan is what both Sweep and the
// serving layer execute — cell c, replication r runs JobSpec(c, r), and the
// job list Cells × Reps is worker-count-invariant, so any executor that
// aggregates replications in order reproduces Sweep's cells exactly.
type SweepPlan struct {
	// Protocol is the registered protocol name the plan runs.
	Protocol string
	// BaseSeed is the sweep's seed offset (SweepConfig.Base.Seed).
	BaseSeed uint64
	// Reps is the number of seeded replications per cell (>= 1).
	Reps int
	// Cells holds one entry per grid point, in grid order.
	Cells []PlannedCell
}

// Jobs returns the total number of (cell, replication) jobs in the plan.
func (p *SweepPlan) Jobs() int { return len(p.Cells) * p.Reps }

// JobSpec returns the exact Spec job (cell, rep) runs: the cell's validated
// Spec with the replication's derived seed. Running it through the plan's
// protocol reproduces the corresponding Sweep replication bit-exactly.
func (p *SweepPlan) JobSpec(cell, rep int) Spec {
	s := p.Cells[cell].Spec
	s.Seed = RepSeed(p.BaseSeed, rep)
	return s
}

// RepSeed returns the run seed of sweep replication rep under base seed
// base: base + rep·10⁶ + 1. Cells deliberately share replication seeds (the
// grid axes distinguish them) while replications within a cell never
// collide for any practical replication count.
func RepSeed(base uint64, rep int) uint64 {
	return base + uint64(rep)*1e6 + 1
}

// Plan enumerates and validates the factor grid of cfg without running
// anything: the deterministic job list a Sweep would execute, exposed so
// other executors (the pluralityd serving layer, custom schedulers) can fan
// the same jobs out and still aggregate cells bit-identically. Warm-start
// configurations have no flattened grid and are rejected.
func (cfg SweepConfig) Plan() (*SweepPlan, error) {
	if cfg.WarmStart != nil {
		return nil, fmt.Errorf("plurality: warm-start sweeps have no flattened plan; run them through Sweep")
	}
	if _, err := Lookup(cfg.Protocol); err != nil {
		return nil, err
	}
	reps := cfg.Reps
	if reps <= 0 {
		reps = 5
	}
	ns := cfg.Ns
	if len(ns) == 0 {
		ns = []int{cfg.Base.N}
	}
	ks := cfg.Ks
	if len(ks) == 0 {
		ks = []int{cfg.Base.K}
	}
	alphas := cfg.Alphas
	if len(alphas) == 0 {
		alphas = []float64{cfg.Base.Alpha}
	}
	topos := cfg.Topologies
	if len(topos) == 0 {
		topos = []TopologySpec{cfg.Base.Topology}
	}
	advs := cfg.Adversaries
	if len(advs) == 0 {
		advs = []AdversarySpec{cfg.Base.Adversary}
	}
	plan := &SweepPlan{Protocol: cfg.Protocol, BaseSeed: cfg.Base.Seed, Reps: reps}
	for _, n := range ns {
		for _, k := range ks {
			for _, a := range alphas {
				for _, tp := range topos {
					for _, adv := range advs {
						spec := cfg.Base
						spec.N, spec.K, spec.Alpha, spec.Topology = n, k, a, tp
						spec.Adversary = adv
						// Validate with replication 0's actual seed so the
						// random-graph connectivity check inspects a graph the
						// cell really runs on (replications with GraphSeed 0
						// derive their graphs from the run seed).
						spec.Seed = RepSeed(cfg.Base.Seed, 0)
						if err := spec.validate(); err != nil {
							return nil, err
						}
						// Label the graph the cell actually runs on — defaults
						// resolved per n, so two cells sharing {Kind: "torus"}
						// still distinguish their 30x30 from their 32x32.
						plan.Cells = append(plan.Cells, PlannedCell{
							N: n, K: k, Alpha: a,
							Topology:  tp.ResolvedLabel(n),
							Adversary: adv.Label(),
							Spec:      spec,
						})
					}
				}
			}
		}
	}
	return plan, nil
}

// foldMetrics accumulates per-replication measurement maps (in replication
// order) into one stats.Summary per metric name.
func foldMetrics(reps []map[string]float64) map[string]*stats.Summary {
	agg := make(map[string]*stats.Summary)
	for _, m := range reps {
		for name, v := range m {
			s, ok := agg[name]
			if !ok {
				s = &stats.Summary{}
				agg[name] = s
			}
			s.Add(v)
		}
	}
	return agg
}

// AggregateCellMetrics folds one cell's per-replication measurements (in
// replication order) into the aggregated Metrics map a SweepCell carries.
// It is the exact aggregation Sweep applies, exported so an external
// executor of a SweepPlan — the pluralityd serving layer in particular —
// produces cells byte-identical to a local Sweep's.
func AggregateCellMetrics(reps []map[string]float64) map[string]Summary {
	agg := foldMetrics(reps)
	out := make(map[string]Summary, len(agg))
	for name, s := range agg {
		out[name] = summarize(s)
	}
	return out
}

// SweepResult is the outcome of a Sweep, renderable as an aligned ASCII
// table or CSV.
type SweepResult struct {
	// Protocol is the protocol that ran.
	Protocol string
	// Cells holds one entry per grid point, in grid order (n-major, then
	// k, then alpha, then topology, then adversary).
	Cells []SweepCell

	table *harness.Table
}

// Render returns the sweep as an aligned ASCII table.
func (r *SweepResult) Render() string { return r.table.Render() }

// CSV returns the sweep in CSV form (mean, SE and count per metric).
func (r *SweepResult) CSV() string { return r.table.CSV() }

// StandardMetrics is the default per-run measurement set used by Sweep.
func StandardMetrics(res *Result) map[string]float64 {
	m := map[string]float64{
		"duration": res.Duration,
	}
	if res.PluralityWon && res.FullConsensus {
		m["plurality_won"] = 1
	} else {
		m["plurality_won"] = 0
	}
	if res.EpsReached {
		m["eps_time"] = res.EpsTime
	}
	if res.FullConsensus {
		m["consensus_time"] = res.ConsensusTime
	}
	return m
}

// sweepWarmStart is the WarmStart arm of Sweep: one cell, frozen at the
// snapshot's structural parameters, whose replications resume the shared
// prefix with distinct divergence labels instead of running from scratch.
func sweepWarmStart(ctx context.Context, cfg SweepConfig, metricFn func(*Result) map[string]float64, order []string, reps int) (*SweepResult, error) {
	if len(cfg.Ns)+len(cfg.Ks)+len(cfg.Alphas)+len(cfg.Topologies)+len(cfg.Adversaries) > 0 {
		return nil, fmt.Errorf("plurality: warm-start sweeps cannot vary Ns/Ks/Alphas/Topologies/Adversaries — the snapshot freezes them; vary only Reps")
	}
	meta := cfg.WarmStart.Meta()
	if cfg.Protocol != "" && cfg.Protocol != meta.Protocol {
		return nil, fmt.Errorf("plurality: sweep protocol %q != snapshot protocol %q", cfg.Protocol, meta.Protocol)
	}
	spec := meta.Spec
	measurements := make([]map[string]float64, reps)
	err := harness.ForEachWorkers(ctx, reps, cfg.Workers,
		func(rctx context.Context, rep int) error {
			res, err := Resume(rctx, cfg.WarmStart, &ResumeOptions{Perturb: uint64(rep)})
			if err != nil {
				return err
			}
			measurements[rep] = metricFn(res)
			return nil
		})
	if err != nil {
		return nil, err
	}
	out := &SweepResult{
		Protocol: meta.Protocol,
		table: harness.NewTable(fmt.Sprintf("warm-start sweep: %s from t=%g", meta.Protocol, meta.Time),
			[]string{"n", "k", "alpha"}, order),
	}
	agg := foldMetrics(measurements)
	out.table.Append(map[string]float64{
		"n": float64(spec.N), "k": float64(spec.K), "alpha": spec.Alpha,
	}, agg)
	cell := SweepCell{N: spec.N, K: spec.K, Alpha: spec.Alpha,
		Topology:  spec.Topology.ResolvedLabel(spec.N),
		Adversary: spec.Adversary.Label(),
		Metrics:   make(map[string]Summary, len(agg))}
	for name, s := range agg {
		cell.Metrics[name] = summarize(s)
	}
	out.Cells = append(out.Cells, cell)
	return out, nil
}

// Sweep runs one protocol across the factor grid of cfg, replicating every
// grid point with distinct seeds in parallel, and aggregates the metrics
// per cell. It stops at the first error — including ctx cancellation, which
// every underlying run honours promptly. With WarmStart set, the sweep
// instead resumes a shared prefix snapshot per replication (see
// SweepConfig.WarmStart).
func Sweep(ctx context.Context, cfg SweepConfig) (*SweepResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	reps := cfg.Reps
	if reps <= 0 {
		reps = 5
	}
	metricFn := cfg.Metrics
	order := []string{}
	if metricFn == nil {
		metricFn = StandardMetrics
		order = []string{"duration", "eps_time", "consensus_time", "plurality_won"}
	}
	if cfg.WarmStart != nil {
		return sweepWarmStart(ctx, cfg, metricFn, order, reps)
	}
	p, err := Lookup(cfg.Protocol)
	if err != nil {
		return nil, err
	}

	out := &SweepResult{
		Protocol: cfg.Protocol,
		table: harness.NewTable(fmt.Sprintf("sweep: %s", cfg.Protocol),
			[]string{"n", "k", "alpha"}, order),
	}
	if len(cfg.Topologies) > 0 {
		out.table.LabelOrder = append(out.table.LabelOrder, "topology")
	}
	if len(cfg.Adversaries) > 0 {
		out.table.LabelOrder = append(out.table.LabelOrder, "adversary")
	}

	// Pass 1: enumerate and validate every grid cell up front, so a bad
	// cell fails the sweep before any replication burns CPU.
	plan, err := cfg.Plan()
	if err != nil {
		return nil, err
	}
	reps = plan.Reps

	// Pass 2: flatten cells × replications into one job list spread over a
	// single worker pool, so a slow cell no longer serializes the grid.
	// Each job writes its own slot; aggregation below walks the slots in
	// (cell, rep) order, making the output independent of goroutine
	// interleaving.
	metrics := make([]map[string]float64, plan.Jobs())
	err = harness.ForEachWorkersScratch(ctx, len(metrics), cfg.Workers, newWorkerScratch,
		func(rctx context.Context, job int, ws any) error {
			s := plan.JobSpec(job/reps, job%reps)
			s.scratch = ws.(*topo.Scratch)
			res, err := p.Run(rctx, s)
			if err != nil {
				return err
			}
			metrics[job] = metricFn(res)
			return nil
		})
	if err != nil {
		return nil, err
	}

	// Pass 3: aggregate per cell, in grid order.
	for ci, c := range plan.Cells {
		agg := foldMetrics(metrics[ci*reps : (ci+1)*reps])
		var labels map[string]string
		if len(cfg.Topologies) > 0 || len(cfg.Adversaries) > 0 {
			labels = map[string]string{}
			if len(cfg.Topologies) > 0 {
				labels["topology"] = c.Topology
			}
			if len(cfg.Adversaries) > 0 {
				labels["adversary"] = c.Adversary
			}
		}
		out.table.AppendLabeled(labels, map[string]float64{
			"n": float64(c.N), "k": float64(c.K), "alpha": c.Alpha,
		}, agg)
		cell := SweepCell{N: c.N, K: c.K, Alpha: c.Alpha, Topology: c.Topology,
			Adversary: c.Adversary,
			Metrics:   make(map[string]Summary, len(agg))}
		for name, s := range agg {
			cell.Metrics[name] = summarize(s)
		}
		out.Cells = append(out.Cells, cell)
	}
	return out, nil
}
