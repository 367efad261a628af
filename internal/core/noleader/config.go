// Package noleader implements the paper's fully decentralized
// plurality-consensus protocol (Algorithms 4 and 5, §4): after the
// clustering phase of internal/cluster has produced n/polylog(n) cluster
// leaders, the leaders jointly emulate the single leader of §3.
//
// Per generation every leader walks through three states — 1 (two-choices),
// 2 (sleeping), 3 (propagation) — driven by counting the (0,·,·)-signals of
// its members as a clock. Freshness spreads between leaders through ordinary
// node traffic: every node reports the (gen, state) pair of the random
// leader it sampled to its own leader, which adopts lexicographically newer
// pairs (Algorithm 5 lines 1–3). The sleeping state absorbs the O(1)
// broadcast skew so that no cluster is still doing two-choices for
// generation i when another already allows propagation (Proposition 31,
// Figure 2).
package noleader

import (
	"context"
	"fmt"
	"math"

	"plurality/internal/adversary"
	"plurality/internal/cluster"
	"plurality/internal/metrics"
	"plurality/internal/opinion"
	"plurality/internal/sim"
	"plurality/internal/snap"
	"plurality/internal/stats"
	"plurality/internal/topo"
	"plurality/internal/xrand"
)

// Config parametrizes one decentralized run.
type Config struct {
	// N is the number of nodes (>= 8) and K the number of opinions (>= 1).
	N, K int
	// Alpha builds a planted-bias assignment when Assignment is nil.
	Alpha float64
	// Assignment optionally fixes the initial opinions (not mutated).
	Assignment []opinion.Opinion
	// Latency is the channel-establishment distribution; default Exp(1).
	Latency sim.Latency
	// Topo is the interaction graph random contacts are sampled from, in
	// both the clustering and the consensus phase; nil means the complete
	// graph on N nodes (the paper's model). Its size must equal N.
	Topo topo.Sampler
	// Cluster optionally overrides the clustering parameters; N, Latency,
	// Topo and Seed are filled in from this Config.
	Cluster cluster.Params
	// C1 is the steps-per-time-unit constant; default the measured
	// 0.9-quantile of the multi-leader waiting time T3 with
	// T'2 = max(T2,T2,T2) + max(T2,T2) (§4.3).
	C1 float64
	// TwoChoicesUnits is the length of the two-choices phase in time units
	// (the paper's C2 = Cbr + 1 + 2/C1 shape); default 3.5.
	TwoChoicesUnits float64
	// SleepUnits is the length of the sleeping phase in time units
	// (C3 − C2 in the paper); default 3.5.
	SleepUnits float64
	// GenFraction is the fraction of its cluster a leader must see in the
	// newest generation before advancing; default 1/2 + 1/√log₂ n
	// (Algorithm 5 line 12).
	GenFraction float64
	// GStar caps the number of generations; default
	// syncgen.GenerationBudget(N, α̂) + 2.
	GStar int
	// MaxTime aborts the consensus phase (virtual time steps); default
	// derived from the theoretical horizon with a ×16 safety factor.
	MaxTime float64
	// Seed drives all randomness (clustering and consensus).
	Seed uint64
	// RecordEvery sets the snapshot interval in time steps; default C1.
	RecordEvery float64
	// Eps defines ε-convergence; default 1/log² n.
	Eps float64
	// Ctx cancels or bounds the run (clustering and consensus phases);
	// polled every few hundred simulator events. nil means never cancelled.
	Ctx context.Context
	// Observe, when non-nil, receives every recorded consensus-phase
	// snapshot as it happens.
	Observe func(metrics.Point)
	// DiscardTrajectory leaves Result.Trajectory empty, keeping O(1)
	// recording memory; the Outcome is evaluated incrementally instead.
	DiscardTrajectory bool
	// Adv configures the shared adversary layer (crash/churn, message
	// delay/drop, Byzantine lying; see internal/adversary). The zero value
	// disables it; it draws from its own generator, so honest runs stay
	// byte-identical. Adversary actions apply to the consensus phase only —
	// the clustering phase runs before the adversary wakes up.
	Adv adversary.Config
	// Ckpt requests a mid-run state capture and/or resumes from one; nil
	// disables checkpointing. Ckpt.At refers to consensus-phase virtual
	// time (the time axis of the Result); the snapshot embeds the finished
	// clustering, so a restored run skips formation entirely. See
	// snap.Checkpoint for the semantics shared by every engine.
	Ckpt *snap.Checkpoint
	// Scratch optionally supplies reusable batch-sampling buffers; nil
	// allocates run-local ones. The public batch layer passes one per
	// worker so replications sharing a worker share buffers.
	Scratch *topo.Scratch
}

func (cfg *Config) normalize() error {
	if cfg.N < 8 {
		return fmt.Errorf("noleader: need N >= 8, got %d", cfg.N)
	}
	if cfg.K < 1 {
		return fmt.Errorf("noleader: need K >= 1, got %d", cfg.K)
	}
	if cfg.Assignment != nil && len(cfg.Assignment) != cfg.N {
		return fmt.Errorf("noleader: assignment length %d != N %d", len(cfg.Assignment), cfg.N)
	}
	if cfg.Latency == nil {
		cfg.Latency = sim.ExpLatency{Rate: 1}
	}
	tp, err := topo.OrComplete(cfg.Topo, cfg.N)
	if err != nil {
		return fmt.Errorf("noleader: %w", err)
	}
	cfg.Topo = tp
	if cfg.C1 <= 0 {
		cfg.C1 = EstimateC1(cfg.Latency, cfg.Seed)
	}
	if cfg.TwoChoicesUnits <= 0 {
		cfg.TwoChoicesUnits = 3.5
	}
	if cfg.SleepUnits <= 0 {
		cfg.SleepUnits = 3.5
	}
	if cfg.GenFraction == 0 {
		// Algorithm 5 line 12 uses 1/2 + 1/√log n, which at asymptotic n is
		// barely above 1/2; at laptop scale the raw formula reaches ~0.8
		// and leaves no slack for gen-signals that arrive while the own
		// leader lags (those are not counted), so the default is clamped.
		cfg.GenFraction = 0.5 + 1/math.Sqrt(math.Log2(float64(cfg.N)))
		if cfg.GenFraction > 0.7 {
			cfg.GenFraction = 0.7
		}
	}
	if cfg.GenFraction <= 0 || cfg.GenFraction >= 1 {
		return fmt.Errorf("noleader: GenFraction %v outside (0,1)", cfg.GenFraction)
	}
	if cfg.RecordEvery <= 0 {
		cfg.RecordEvery = cfg.C1
	}
	if cfg.Eps <= 0 {
		l := math.Log2(float64(cfg.N))
		cfg.Eps = 1 / (l * l)
	}
	return nil
}

// EstimateC1 returns the 0.9-quantile of the multi-leader waiting time
// T3 = T'2 + T1 + T'2, T'2 = max(T2,T2,T2) + max(T2,T2), estimated by
// Monte-Carlo; deterministic in seed.
func EstimateC1(lat sim.Latency, seed uint64) float64 {
	r := xrand.New(seed).SplitNamed("c1-estimate-multi")
	const samples = 40000
	xs := make([]float64, samples)
	acc := func() float64 {
		three := math.Max(lat.Sample(r), math.Max(lat.Sample(r), lat.Sample(r)))
		two := math.Max(lat.Sample(r), lat.Sample(r))
		return three + two
	}
	for i := range xs {
		xs[i] = acc() + r.Exp(1) + acc()
	}
	return stats.Select(xs, int(0.9*float64(samples)))
}
