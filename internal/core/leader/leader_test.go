package leader

import (
	"math"
	"sort"
	"testing"

	"plurality/internal/adversary"
	"plurality/internal/opinion"
	"plurality/internal/sim"
	"plurality/internal/stats"
	"plurality/internal/xrand"
)

func TestValidation(t *testing.T) {
	cases := []Config{
		{N: 1, K: 2},
		{N: 10, K: 0},
		{N: 10, K: 2, GenFraction: 1.5},
		{N: 10, K: 2, Assignment: make([]opinion.Opinion, 3)},
	}
	for i, cfg := range cases {
		if _, err := Run(cfg); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

func TestConvergesTwoOpinions(t *testing.T) {
	res, err := Run(Config{N: 1000, K: 2, Alpha: 2, Seed: 1, CheckInvariants: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Outcome.FullConsensus {
		t.Fatalf("no consensus by t=%v (timed out: %v)", res.EndTime, res.TimedOut)
	}
	if !res.Outcome.PluralityWon {
		t.Errorf("plurality lost: %v", res.Outcome)
	}
}

func TestConvergesManyOpinions(t *testing.T) {
	res, err := Run(Config{N: 2000, K: 8, Alpha: 2, Seed: 2, CheckInvariants: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Outcome.FullConsensus || !res.Outcome.PluralityWon {
		t.Fatalf("outcome %v (timed out: %v)", res.Outcome, res.TimedOut)
	}
}

func TestEpsConvergenceBeforeFull(t *testing.T) {
	res, err := Run(Config{N: 2000, K: 4, Alpha: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Outcome.EpsReached {
		t.Fatal("eps-convergence not reached")
	}
	if res.Outcome.FullConsensus && res.Outcome.EpsTime > res.Outcome.ConsensusTime {
		t.Errorf("eps time %v after consensus time %v",
			res.Outcome.EpsTime, res.Outcome.ConsensusTime)
	}
}

func TestDeterministicReplay(t *testing.T) {
	cfg := Config{N: 500, K: 3, Alpha: 2, Seed: 42}
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.EndTime != b.EndTime || a.Events != b.Events ||
		a.Outcome.Winner != b.Outcome.Winner {
		t.Fatalf("replay diverged: t=%v/%v events=%d/%d",
			a.EndTime, b.EndTime, a.Events, b.Events)
	}
}

func TestPhaseLogAlternates(t *testing.T) {
	res, err := Run(Config{N: 1000, K: 4, Alpha: 2, Seed: 5, CheckInvariants: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PhaseLog) < 3 {
		t.Fatalf("phase log too short: %v", res.PhaseLog)
	}
	// Within one generation: two-choices, then propagation; generation
	// numbers never decrease.
	for i := 1; i < len(res.PhaseLog); i++ {
		prev, cur := res.PhaseLog[i-1], res.PhaseLog[i]
		if cur.Time < prev.Time {
			t.Fatalf("phase log out of order at %d", i)
		}
		if cur.Gen < prev.Gen {
			t.Fatalf("leader generation decreased at %d: %v", i, res.PhaseLog)
		}
		if cur.Gen == prev.Gen && !(prev.Phase == PhaseTwoChoices && cur.Phase == PhasePropagation) {
			t.Fatalf("phase within gen %d did not go two-choices->propagation", cur.Gen)
		}
		if cur.Gen == prev.Gen+1 && cur.Phase != PhaseTwoChoices {
			t.Fatalf("new generation %d did not start in two-choices", cur.Gen)
		}
	}
}

func TestTwoChoicesPhaseDuration(t *testing.T) {
	// Proposition 16: the two-choices phase of each generation lasts about
	// C3/C1 = 2 time units (within generous tolerance: signal latencies
	// delay the counter).
	res, err := Run(Config{N: 4000, K: 2, Alpha: 2, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	unit := res.C1
	type span struct{ start, end float64 }
	spans := map[int]*span{}
	for _, ev := range res.PhaseLog {
		switch ev.Phase {
		case PhaseTwoChoices:
			spans[ev.Gen] = &span{start: ev.Time, end: -1}
		case PhasePropagation:
			if s := spans[ev.Gen]; s != nil {
				s.end = ev.Time
			}
		}
	}
	checked := 0
	for gen, s := range spans {
		if s.end < 0 {
			continue
		}
		units := (s.end - s.start) / unit
		if units < 1 || units > 5 {
			t.Errorf("gen %d two-choices phase lasted %.2f units, want ~2", gen, units)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no completed two-choices phases measured")
	}
}

func TestGenerationsBounded(t *testing.T) {
	res, err := Run(Config{N: 1000, K: 4, Alpha: 2, Seed: 9, CheckInvariants: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range res.Trajectory {
		if p.MaxGen > res.GStar {
			t.Fatalf("node generation %d exceeds G* = %d", p.MaxGen, res.GStar)
		}
	}
}

func TestSuccessRateAcrossSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed success-rate sweep skipped in -short mode")
	}
	wins := 0
	const trials = 10
	for seed := 0; seed < trials; seed++ {
		res, err := Run(Config{N: 1000, K: 4, Alpha: 2.5, Seed: uint64(seed)})
		if err != nil {
			t.Fatal(err)
		}
		if res.Outcome.PluralityWon && res.Outcome.FullConsensus {
			wins++
		}
	}
	if wins < trials-1 {
		t.Errorf("plurality won only %d/%d runs", wins, trials)
	}
}

func TestSlowLatency(t *testing.T) {
	// With mean latency 5 (λ = 0.2) the protocol must still converge, just
	// proportionally slower (time units stretch with 1/λ).
	res, err := Run(Config{
		N: 800, K: 2, Alpha: 2.5, Seed: 11,
		Latency: sim.ExpLatency{Rate: 0.2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Outcome.FullConsensus {
		t.Fatalf("no consensus with slow latency by t=%v (timeout %v)", res.EndTime, res.TimedOut)
	}
	if res.C1 < 30 {
		t.Errorf("C1 = %v for λ=0.2, expected ≈ 5× the λ=1 value (~53)", res.C1)
	}
}

func TestConstantLatencyAging(t *testing.T) {
	// Positive-aging variant: deterministic latencies.
	res, err := Run(Config{
		N: 800, K: 2, Alpha: 2.5, Seed: 13,
		Latency: sim.ConstLatency{D: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Outcome.FullConsensus {
		t.Fatalf("no consensus with constant latency (timeout %v)", res.TimedOut)
	}
}

func TestMonochromaticInput(t *testing.T) {
	assign := make([]opinion.Opinion, 200)
	res, err := Run(Config{N: 200, K: 2, Assignment: assign, Seed: 15})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Outcome.FullConsensus || res.Outcome.Winner != 0 {
		t.Fatalf("monochromatic input broke: %v", res.Outcome)
	}
	if res.Outcome.ConsensusTime != 0 {
		t.Errorf("consensus time %v, want 0", res.Outcome.ConsensusTime)
	}
}

func TestEstimateC1MatchesGammaBound(t *testing.T) {
	// For exponential latencies, the exact T3 is stochastically dominated
	// by the Γ(7, β) majorant, so measured C1 must be at most the majorant
	// quantile, and within a sane factor of it.
	for _, rate := range []float64{0.5, 1, 2} {
		got := EstimateC1(sim.ExpLatency{Rate: rate}, 1)
		beta := math.Min(1, rate)
		bound := xrand.GammaQuantile(7, beta, 0.9)
		if got > bound {
			t.Errorf("λ=%v: measured C1 %v exceeds Γ(7,β) majorant %v", rate, got, bound)
		}
		if got < bound/4 {
			t.Errorf("λ=%v: measured C1 %v implausibly far below majorant %v", rate, got, bound)
		}
	}
}

func TestEstimateC1Deterministic(t *testing.T) {
	a := EstimateC1(sim.ExpLatency{Rate: 1}, 7)
	b := EstimateC1(sim.ExpLatency{Rate: 1}, 7)
	if a != b {
		t.Fatalf("EstimateC1 not deterministic: %v vs %v", a, b)
	}
}

// TestQuickselect checks the selection EstimateC1 takes its quantile with
// against a full sort.
func TestQuickselect(t *testing.T) {
	r := xrand.New(17)
	for trial := 0; trial < 50; trial++ {
		n := 1 + r.Intn(200)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = r.Float64()
		}
		k := r.Intn(n)
		cp := make([]float64, n)
		copy(cp, xs)
		got := stats.Select(xs, k)
		sort.Float64s(cp)
		if got != cp[k] {
			t.Fatalf("stats.Select(k=%d) = %v, want %v", k, got, cp[k])
		}
	}
}

func TestLeaderLoadAccounting(t *testing.T) {
	// §4.5: the designated leader serves Θ(n) requests per time unit —
	// every node's tick produces a 0-signal plus, per completed operation,
	// one state read.
	res, err := Run(Config{N: 1000, K: 2, Alpha: 3, Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalLeaderMessages == 0 {
		t.Fatal("no leader messages accounted")
	}
	if res.PeakLeaderLoad < float64(1000)*res.C1/4 {
		t.Errorf("peak leader load %v implausibly low for n=1000 (C1=%v)",
			res.PeakLeaderLoad, res.C1)
	}
}

func TestSignalLossTolerated(t *testing.T) {
	// With 20% of signals dropped the leader's counters run slow, but the
	// protocol must still converge to the plurality opinion.
	res, err := Run(Config{N: 1000, K: 3, Alpha: 2.5, Seed: 21, SignalLoss: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Outcome.FullConsensus || !res.Outcome.PluralityWon {
		t.Fatalf("20%% signal loss broke consensus: %v (timed out %v)",
			res.Outcome, res.TimedOut)
	}
}

func TestCrashFaultTolerance(t *testing.T) {
	// 30% of nodes fail-stop mid-run; the survivors must still reach
	// unanimity on the plurality opinion (consensus semantics are
	// survivor-relative under the crash adversary).
	res, err := Run(Config{
		N: 1000, K: 3, Alpha: 3, Seed: 25,
		Adv: adversary.Config{Kind: adversary.Crash, Fraction: 0.3, At: 20, Seed: 25},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.AdvCounters.Crashes != 300 {
		t.Fatalf("%d crashes, want 300", res.AdvCounters.Crashes)
	}
	if !res.Outcome.FullConsensus {
		t.Fatalf("survivors did not converge (timed out %v)", res.TimedOut)
	}
	if res.Outcome.Winner != res.InitialPlurality {
		t.Errorf("survivors converged to %d, plurality was %d",
			res.Outcome.Winner, res.InitialPlurality)
	}
	if res.Outcome.ConsensusTime < 20 {
		t.Errorf("consensus at t=%v before the crash at t=20 with a 3-color input",
			res.Outcome.ConsensusTime)
	}
}

func TestCrashValidation(t *testing.T) {
	crash := func(frac, at float64) Config {
		return Config{N: 100, K: 2, Adv: adversary.Config{Kind: adversary.Crash, Fraction: frac, At: at}}
	}
	if _, err := Run(crash(1, 0)); err == nil {
		t.Error("crash fraction 1 accepted")
	}
	if _, err := Run(crash(0.1, -1)); err == nil {
		t.Error("negative crash time accepted")
	}
}

func TestSignalLossValidation(t *testing.T) {
	if _, err := Run(Config{N: 100, K: 2, SignalLoss: 1.5}); err == nil {
		t.Error("SignalLoss > 1 accepted")
	}
	if _, err := Run(Config{N: 100, K: 2, SignalLoss: -0.1}); err == nil {
		t.Error("negative SignalLoss accepted")
	}
}

func TestMaxTimeAborts(t *testing.T) {
	res, err := Run(Config{N: 500, K: 2, Alpha: 1.0, Seed: 19, MaxTime: 5})
	if err != nil {
		t.Fatal(err)
	}
	if !res.TimedOut && !res.Outcome.FullConsensus {
		t.Error("run neither converged nor timed out")
	}
	if res.EndTime > 5+1 {
		t.Errorf("run continued to t=%v past MaxTime", res.EndTime)
	}
}

func BenchmarkRunN1000(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := Run(Config{N: 1000, K: 4, Alpha: 2, Seed: uint64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}
