package experiments

import (
	"fmt"

	"plurality/internal/core/leader"
	"plurality/internal/harness"
	"plurality/internal/sim"
)

// Ablations probes three design choices of the single-leader protocol,
// beyond what the paper evaluates:
//
//   - the two-choices window C3 (default 2·C1 ≈ two time units,
//     Proposition 16): shorter windows risk under-populated generations,
//     longer ones only add time;
//   - the generation-advance threshold (Algorithm 3's ⌈n/2⌉): lower
//     thresholds advance on noisy estimates, higher ones delay;
//   - signal loss (an extension): the leader's counters run slow under
//     loss; the gen-signal threshold ⌈n/2⌉ becomes unreachable once the
//     loss rate reaches 1 − GenFraction, predicting a sharp cliff at 50%.
func Ablations(o Opts) *harness.Table {
	o = o.normalize()
	n := 2000
	if o.Quick {
		n = 800
	}
	t := harness.NewTable(
		fmt.Sprintf("Ablations — single-leader design knobs (n=%d, k=4, α=2.5)", n),
		[]string{"c3_mult", "gen_fraction", "signal_loss"},
		[]string{"eps_units", "consensus_units", "success_rate"},
	)
	row := func(c3Mult, genFrac, loss float64) {
		agg := o.replicate(o.Reps, func(rep uint64) harness.Metrics {
			cfg := leader.Config{
				N: n, K: 4, Alpha: 2.5,
				GenFraction: genFrac,
				SignalLoss:  loss,
				Seed:        mergeSeed(o.Seed+1500, rep),
			}
			if c3Mult > 0 {
				// C3 is expressed relative to C1, which the run takes from
				// the same per-latency estimate, so the ratio is exact.
				cfg.C3 = c3Mult * leader.TimeUnit(sim.ExpLatency{Rate: 1})
			}
			res, err := leader.Run(cfg)
			if err != nil {
				panic(fmt.Sprintf("experiments: Ablations: %v", err))
			}
			m := harness.Metrics{
				"success_rate": boolMetric(res.Outcome.PluralityWon &&
					res.Outcome.FullConsensus),
			}
			if res.Outcome.EpsReached {
				m["eps_units"] = res.Outcome.EpsTime / res.C1
			}
			if res.Outcome.FullConsensus {
				m["consensus_units"] = res.Outcome.ConsensusTime / res.C1
			}
			return m
		})
		t.Append(map[string]float64{
			"c3_mult": c3Mult, "gen_fraction": genFrac, "signal_loss": loss,
		}, agg)
	}
	c3s := []float64{0.5, 1, 2, 4, 8}
	fracs := []float64{0.25, 0.5, 0.75}
	losses := []float64{0, 0.2, 0.4, 0.6}
	if o.Quick {
		c3s = []float64{2}
		fracs = []float64{0.5}
		losses = []float64{0, 0.4}
	}
	for _, c3 := range c3s {
		row(c3, 0.5, 0)
	}
	for _, f := range fracs {
		if f != 0.5 {
			row(2, f, 0)
		}
	}
	for _, q := range losses {
		if q != 0 {
			row(2, 0.5, q)
		}
	}
	return t
}
