package experiments

import (
	"fmt"
	"math"

	"plurality/internal/core/leader"
	"plurality/internal/core/noleader"
	"plurality/internal/harness"
	"plurality/internal/sim"
	"plurality/internal/stats"
	"plurality/internal/xrand"
)

// Figure1 regenerates the paper's Figure 1: the number of time steps per
// time unit, F⁻¹(0.9) of the waiting time T3, as a function of the expected
// latency 1/λ. Three series are produced: the analytic quantile of the
// Γ(7, β) majorant used in Remark 14, the Monte-Carlo quantile of the exact
// single-leader T3 = max(T2,T2)+T2 + T1 + max(T2,T2)+T2, and the
// multi-leader variant of §4.3. Both quantiles are the engines' own C1
// (leader.TimeUnit, noleader.TimeUnit: 50,000 draws, one cell per latency);
// only the mean_T3 column is replicated over seeds. The paper's plot grows
// linearly in 1/λ on a log-log scale; the log-log slope is appended to the
// caption.
func Figure1(o Opts) *harness.Table {
	o = o.normalize()
	points := 13
	if o.Quick {
		points = 5
	}
	invLambdas := logRange(1, 1000, points)
	t := harness.NewTable(
		"Figure 1 — steps per time unit F⁻¹(0.9) vs expected latency 1/λ",
		[]string{"inv_lambda"},
		[]string{"gamma_majorant", "exact_T3_q90", "multi_leader_q90", "mean_T3", "paper_mean_1p3overlambda"},
	)
	var xs, ys []float64
	for _, il := range invLambdas {
		lambda := 1 / il
		beta := math.Min(1, lambda)
		lat := sim.ExpLatency{Rate: lambda}
		cells := map[string]*stats.Summary{
			"gamma_majorant": singleCell(xrand.GammaQuantile(7, beta, 0.9)),
		}
		exact := leader.TimeUnit(lat)
		meanT3 := &stats.Summary{}
		for rep := 0; rep < o.Reps; rep++ {
			seed := mergeSeed(o.Seed+100, uint64(rep))
			// Example 15's closed form E[T3] = 1 + 3/λ: measure the mean of
			// one accumulated latency plus a tick gap... the paper counts
			// E(T3) = 1 + 3/λ for T3 = T1 + T'2 with E[T'2] = 3/(2λ)+... we
			// measure the full round-trip mean for the table.
			r := xrand.New(seed).SplitNamed("meanT3")
			sum := 0.0
			const n = 20000
			for i := 0; i < n; i++ {
				acc := math.Max(r.Exp(lambda), r.Exp(lambda)) + r.Exp(lambda)
				sum += acc + r.Exp(1)
			}
			meanT3.Add(sum / n)
		}
		cells["exact_T3_q90"] = singleCell(exact)
		cells["multi_leader_q90"] = singleCell(noleader.TimeUnit(lat))
		cells["mean_T3"] = meanT3
		cells["paper_mean_1p3overlambda"] = singleCell(1 + 3/lambda)
		t.Append(map[string]float64{"inv_lambda": il}, cells)
		xs = append(xs, il)
		ys = append(ys, exact)
	}
	if len(xs) >= 2 {
		t.Caption += "\n" + fitLine("log(exact_T3_q90) ~ log(1/λ)", stats.LogLogFit(xs, ys))
	}
	return t
}

// Figure2 regenerates the paper's Figure 2: the per-generation phase
// diagram of the decentralized protocol. For each generation it reports the
// six marks t̂₀..t̂₅ — first/last leader entering two-choices, sleeping and
// propagation — in time units relative to the generation's birth, which is
// exactly the quantity Proposition 31 constrains.
func Figure2(o Opts) *harness.Table {
	o = o.normalize()
	n := 4000
	if o.Quick {
		n = 1500
	}
	// α is kept small so several generations complete a full
	// two-choices/sleep/propagation cycle before consensus cuts the run
	// short; with large α the late generations are born into an almost
	// monochromatic system and never need their propagation phase.
	t := harness.NewTable(
		"Figure 2 — leader phase marks per generation (time units after generation start)",
		[]string{"gen"},
		[]string{"t0_first_2c", "t1_last_2c", "t2_first_sleep", "t3_last_sleep",
			"t4_first_prop", "t5_last_prop", "prop31a_ok"},
	)
	type mark struct{ vals [6]*stats.Summary }
	marks := map[int]*mark{}
	okByGen := map[int]*stats.Summary{}
	for rep := 0; rep < o.Reps; rep++ {
		res, err := noleader.Run(noleader.Config{
			N: n, K: 4, Alpha: 1.5, Seed: mergeSeed(o.Seed+200, uint64(rep)),
		})
		if err != nil {
			panic(fmt.Sprintf("experiments: Figure2: %v", err))
		}
		unit := res.C1
		for _, ph := range res.PhaseSpans {
			m, ok := marks[ph.Gen]
			if !ok {
				m = &mark{}
				for i := range m.vals {
					m.vals[i] = &stats.Summary{}
				}
				marks[ph.Gen] = m
				okByGen[ph.Gen] = &stats.Summary{}
			}
			base := ph.FirstTwoChoices
			if base < 0 {
				continue
			}
			rel := func(v float64) float64 {
				if v < 0 {
					return math.NaN()
				}
				return (v - base) / unit
			}
			raw := [6]float64{
				rel(ph.FirstTwoChoices), rel(ph.LastTwoChoices),
				rel(ph.FirstSleeping), rel(ph.LastSleeping),
				rel(ph.FirstPropagation), rel(ph.LastPropagation),
			}
			for i, v := range raw {
				if !math.IsNaN(v) {
					m.vals[i].Add(v)
				}
			}
			// Proposition 31(a): every leader is in two-choices before the
			// first one sleeps.
			if ph.FirstSleeping >= 0 && ph.LastTwoChoices >= 0 {
				okByGen[ph.Gen].Add(boolMetric(ph.LastTwoChoices <= ph.FirstSleeping))
			}
		}
	}
	for g := 1; ; g++ {
		m, ok := marks[g]
		if !ok {
			break
		}
		cells := map[string]*stats.Summary{
			"t0_first_2c": m.vals[0], "t1_last_2c": m.vals[1],
			"t2_first_sleep": m.vals[2], "t3_last_sleep": m.vals[3],
			"t4_first_prop": m.vals[4], "t5_last_prop": m.vals[5],
			"prop31a_ok": okByGen[g],
		}
		t.Append(map[string]float64{"gen": float64(g)}, cells)
	}
	return t
}
