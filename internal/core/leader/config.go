// Package leader implements the paper's asynchronous plurality-consensus
// protocol with a designated leader (Algorithms 2 and 3, §3).
//
// Every node owns a rate-1 Poisson clock. On a tick it sends a 0-signal to
// the leader (fire-and-forget, latency T2) and — unless it is locked by an
// earlier attempt — dials two random nodes in parallel and then the leader
// (accumulated latency max(T2,T2)+T2). When all three channels are up it
// reads the sampled nodes' states and the leader's (gen, prop) pair and
// applies a two-choices or a propagation step, but only if the leader state
// matches what it saw on its previous leader contact; this "seen it twice"
// rule is what keeps two-choices and propagation steps of one generation
// from interleaving. The leader is purely reactive: it counts 0-signals as a
// clock and gen-signals as a population estimate of the newest generation,
// flipping prop after C3·n ticks and advancing gen when the newest
// generation reaches half the system.
package leader

import (
	"context"
	"fmt"
	"math"

	"plurality/internal/adversary"
	"plurality/internal/metrics"
	"plurality/internal/opinion"
	"plurality/internal/sim"
	"plurality/internal/snap"
	"plurality/internal/stats"
	"plurality/internal/topo"
	"plurality/internal/xrand"
)

// Config parametrizes one asynchronous single-leader run.
type Config struct {
	// N is the number of nodes (>= 2) and K the number of opinions (>= 1).
	N, K int
	// Alpha builds a planted-bias assignment when Assignment is nil.
	Alpha float64
	// Assignment optionally fixes the initial opinions (not mutated).
	Assignment []opinion.Opinion
	// Latency is the channel-establishment distribution T2; default
	// sim.ExpLatency{Rate: 1}, the paper's model with λ = 1.
	Latency sim.Latency
	// Topo is the interaction graph the two random contacts are sampled
	// from; nil means the complete graph on N nodes (the paper's model).
	// Its size must equal N. The leader channel is unaffected: 0- and
	// gen-signals reach the leader on any topology.
	Topo topo.Sampler
	// C1 is the number of time steps per time unit; default the measured
	// 0.9-quantile of T3 = T'2 + T1 + T'2 for the configured latency
	// (§3.1). It only affects the derived C3 default and reporting.
	C1 float64
	// C3 is the 0-signal count threshold (divided by N) after which the
	// leader allows propagation; default 2·C1, making the two-choices
	// phase last about two time units (Proposition 16).
	C3 float64
	// GenFraction is the fraction of N the newest generation must reach
	// (measured in gen-signals) before the leader allows the next
	// generation; default 0.5 (the ⌈n/2⌉ of Algorithm 3).
	GenFraction float64
	// GStar caps the number of generations; default
	// syncgen.GenerationBudget(N, α̂) + 2 (see the syncgen documentation
	// for why the Lemma 11 tail needs the slack).
	GStar int
	// MaxTime aborts a run that fails to converge (virtual time steps);
	// default derived from the theoretical horizon with a ×16 safety
	// factor.
	MaxTime float64
	// Seed drives all randomness of the run.
	Seed uint64
	// RecordEvery sets the snapshot interval in time steps; default C1
	// (one snapshot per time unit).
	RecordEvery float64
	// Eps defines ε-convergence for the reported outcome; default
	// 1/log² n, matching the 1/polylog n statement of Theorem 13.
	Eps float64
	// CheckInvariants enables the §3.2 invariant assertions (node
	// generation never exceeds the leader's; no two-choices promotion into
	// a generation after its propagation phase started). Panics on
	// violation; meant for tests.
	CheckInvariants bool
	// SignalLoss drops each 0-signal and gen-signal independently with
	// this probability — a robustness extension beyond the paper (§5
	// discusses model generalizations): the leader's tick counter and
	// population estimate then run slow, which stretches phases but must
	// not break correctness. Must lie in [0, 1).
	SignalLoss float64
	// Adv configures the shared adversary layer (crash/churn, message
	// delay/drop, Byzantine lying; see internal/adversary). The zero value
	// disables it; the adversary draws from its own generator, so honest
	// runs are byte-identical whether or not the field existed.
	Adv adversary.Config
	// Ctx cancels or bounds the run; polled every few hundred simulator
	// events. nil means never cancelled.
	Ctx context.Context
	// Ckpt requests a mid-run state capture and/or resumes from one; nil
	// disables checkpointing. See snap.Checkpoint for the semantics shared
	// by every engine.
	Ckpt *snap.Checkpoint
	// Observe, when non-nil, receives every recorded snapshot as it
	// happens.
	Observe func(metrics.Point)
	// DiscardTrajectory leaves Result.Trajectory empty, keeping O(1)
	// recording memory; the Outcome is evaluated incrementally instead.
	DiscardTrajectory bool
	// Scratch optionally supplies reusable batch-sampling buffers; nil
	// allocates run-local ones. The public batch layer passes one per
	// worker so replications sharing a worker share buffers.
	Scratch *topo.Scratch
}

func (cfg *Config) normalize() error {
	if cfg.N < 2 {
		return fmt.Errorf("leader: need N >= 2, got %d", cfg.N)
	}
	if cfg.K < 1 {
		return fmt.Errorf("leader: need K >= 1, got %d", cfg.K)
	}
	if cfg.Assignment != nil && len(cfg.Assignment) != cfg.N {
		return fmt.Errorf("leader: assignment length %d != N %d", len(cfg.Assignment), cfg.N)
	}
	if cfg.Latency == nil {
		cfg.Latency = sim.ExpLatency{Rate: 1}
	}
	tp, err := topo.OrComplete(cfg.Topo, cfg.N)
	if err != nil {
		return fmt.Errorf("leader: %w", err)
	}
	cfg.Topo = tp
	if cfg.GenFraction == 0 {
		cfg.GenFraction = 0.5
	}
	if cfg.GenFraction <= 0 || cfg.GenFraction >= 1 {
		return fmt.Errorf("leader: GenFraction %v outside (0,1)", cfg.GenFraction)
	}
	if cfg.C1 <= 0 {
		cfg.C1 = EstimateC1(cfg.Latency, cfg.Seed)
	}
	if cfg.C3 <= 0 {
		cfg.C3 = 2 * cfg.C1
	}
	if cfg.RecordEvery <= 0 {
		cfg.RecordEvery = cfg.C1
	}
	if cfg.Eps <= 0 {
		l := math.Log2(float64(cfg.N))
		cfg.Eps = 1 / (l * l)
	}
	if cfg.SignalLoss < 0 || cfg.SignalLoss >= 1 {
		return fmt.Errorf("leader: SignalLoss %v outside [0,1)", cfg.SignalLoss)
	}
	return nil
}

// EstimateC1 returns the 0.9-quantile of the waiting time
// T3 = T'2 + T1 + T'2 with T'2 = max(T2,T2) + T2, estimated by Monte-Carlo
// from the given latency distribution; the estimate is deterministic in
// seed. This is the paper's "time unit" constant C1 for arbitrary latencies;
// for exponential latencies it agrees with the Γ-majorant computation within
// sampling error (cross-checked in the E1/E11 experiments).
func EstimateC1(lat sim.Latency, seed uint64) float64 {
	r := xrand.New(seed).SplitNamed("c1-estimate")
	const samples = 40000
	xs := make([]float64, samples)
	for i := range xs {
		xs[i] = sampleT3(r, lat)
	}
	return stats.Select(xs, int(0.9*float64(samples)))
}

// sampleT3 draws one waiting time between two completed operations: the
// accumulated latency of the previous operation, an Exp(1) tick gap, and the
// accumulated latency of the next operation.
func sampleT3(r *xrand.RNG, lat sim.Latency) float64 {
	acc := func() float64 {
		return math.Max(lat.Sample(r), lat.Sample(r)) + lat.Sample(r)
	}
	return acc() + r.Exp(1) + acc()
}
