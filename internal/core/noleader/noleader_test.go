package noleader

import (
	"sort"
	"testing"

	"plurality/internal/opinion"
	"plurality/internal/sim"
	"plurality/internal/xrand"
)

func TestValidation(t *testing.T) {
	cases := []Config{
		{N: 4, K: 2},
		{N: 100, K: 0},
		{N: 100, K: 2, GenFraction: 1.2},
		{N: 100, K: 2, Assignment: make([]opinion.Opinion, 5)},
	}
	for i, cfg := range cases {
		if _, err := Run(cfg); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

func TestConverges(t *testing.T) {
	res, err := Run(Config{N: 2000, K: 2, Alpha: 2.5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Outcome.FullConsensus {
		t.Fatalf("no consensus by t=%v (timed out %v); counts %v",
			res.EndTime, res.TimedOut, res.FinalCounts)
	}
	if !res.Outcome.PluralityWon {
		t.Errorf("plurality lost: %v", res.Outcome)
	}
}

func TestConvergesManyOpinions(t *testing.T) {
	res, err := Run(Config{N: 3000, K: 6, Alpha: 2.5, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Outcome.FullConsensus || !res.Outcome.PluralityWon {
		t.Fatalf("outcome %v (timed out %v)", res.Outcome, res.TimedOut)
	}
}

func TestDeterministicReplay(t *testing.T) {
	cfg := Config{N: 1200, K: 3, Alpha: 2.5, Seed: 7}
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

func TestPhaseSpansOrdering(t *testing.T) {
	// Figure 2 / Proposition 31: within a generation the fastest leader's
	// two-choices start precedes sleeping which precedes propagation; and
	// generation g+1 starts only after generation g's propagation began.
	res, err := Run(Config{N: 2500, K: 4, Alpha: 2.5, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PhaseSpans) == 0 {
		t.Fatal("no phase spans recorded")
	}
	for _, ph := range res.PhaseSpans {
		if ph.FirstTwoChoices < 0 {
			t.Errorf("gen %d never entered two-choices", ph.Gen)
			continue
		}
		if ph.FirstSleeping >= 0 && ph.FirstSleeping < ph.FirstTwoChoices {
			t.Errorf("gen %d slept before two-choices", ph.Gen)
		}
		if ph.FirstPropagation >= 0 && ph.FirstSleeping >= 0 &&
			ph.FirstPropagation < ph.FirstSleeping {
			t.Errorf("gen %d propagated before sleeping", ph.Gen)
		}
	}
	// Spans are ordered by generation, strictly increasing.
	for i := 1; i < len(res.PhaseSpans); i++ {
		if res.PhaseSpans[i].Gen <= res.PhaseSpans[i-1].Gen {
			t.Fatal("phase spans not ordered by generation")
		}
	}
}

func TestProposition31aOverlap(t *testing.T) {
	// Prop. 31(a): when the fastest leader starts sleeping, every leader
	// has been in two-choices for a while — i.e. the last two-choices entry
	// precedes the first sleeping entry for each generation.
	res, err := Run(Config{N: 2500, K: 2, Alpha: 3, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, ph := range res.PhaseSpans {
		if ph.FirstSleeping < 0 || ph.LastTwoChoices < 0 {
			continue
		}
		if ph.LastTwoChoices > ph.FirstSleeping {
			t.Errorf("gen %d: a leader entered two-choices at %v after the first sleep at %v",
				ph.Gen, ph.LastTwoChoices, ph.FirstSleeping)
		}
		checked++
	}
	if checked == 0 {
		t.Skip("no generation completed a full two-choices/sleep cycle")
	}
}

func TestSuccessRateAcrossSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed success-rate sweep skipped in -short mode")
	}
	wins := 0
	const trials = 6
	for seed := 0; seed < trials; seed++ {
		res, err := Run(Config{N: 1500, K: 3, Alpha: 3, Seed: uint64(seed)})
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

func TestClusteringReported(t *testing.T) {
	res, err := Run(Config{N: 1500, K: 2, Alpha: 2.5, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if res.Clustering == nil {
		t.Fatal("no clustering in result")
	}
	if res.ClusteringTime <= 0 {
		t.Error("clustering time not recorded")
	}
	if got := res.Clustering.ParticipatingFrac(); got < 0.7 {
		t.Errorf("participating fraction %v too small", got)
	}
}

func TestGenerationsBounded(t *testing.T) {
	res, err := Run(Config{N: 1500, K: 3, Alpha: 2.5, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range res.Trajectory {
		if p.MaxGen > res.GStar {
			t.Fatalf("generation %d exceeds G* = %d", p.MaxGen, res.GStar)
		}
	}
}

func TestSlowLatency(t *testing.T) {
	res, err := Run(Config{
		N: 1200, K: 2, Alpha: 3, Seed: 13,
		Latency: sim.ExpLatency{Rate: 0.5},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Outcome.FullConsensus {
		t.Fatalf("no consensus with slow latency (timed out %v)", res.TimedOut)
	}
}

func TestClusterLeaderLoadBounded(t *testing.T) {
	// §4.5: no cluster leader's per-unit load should be anywhere near n —
	// it is bounded by a small multiple of the cluster size (members send
	// one signal per tick plus reads from random samplers).
	res, err := Run(Config{N: 2000, K: 2, Alpha: 3, Seed: 15})
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalLeaderMessages == 0 {
		t.Fatal("no leader messages accounted")
	}
	maxCard := 0
	for _, l := range res.Clustering.ParticipatingLeaders() {
		if s := res.Clustering.Size[l]; s > maxCard {
			maxCard = s
		}
	}
	bound := 4 * float64(maxCard) * res.C1
	if res.PeakLeaderLoad > bound {
		t.Errorf("peak cluster-leader load %v exceeds %v (4×card×C1, card=%d)",
			res.PeakLeaderLoad, bound, maxCard)
	}
	// A designated leader would serve ≈ n messages per step, i.e. n·C1 per
	// time unit; cluster leaders must stay well below that scale.
	singleScale := float64(res.Clustering.N) * res.C1
	if res.PeakLeaderLoad >= singleScale/3 {
		t.Errorf("peak cluster-leader load %v within 3× of single-leader scale %v",
			res.PeakLeaderLoad, singleScale)
	}
}

func TestEstimateC1MultiAboveSingle(t *testing.T) {
	// The multi-leader accumulated latency max-of-3 + max-of-2 dominates
	// the single-leader max-of-2 + one, so its C1 must be at least as big.
	lat := sim.ExpLatency{Rate: 1}
	multi := TimeUnit(lat)
	r := xrand.New(1).SplitNamed("cmp")
	const samples = 40000
	xs := make([]float64, samples)
	for i := range xs {
		acc := func() float64 {
			a, b := lat.Sample(r), lat.Sample(r)
			if b > a {
				a = b
			}
			return a + lat.Sample(r)
		}
		xs[i] = acc() + r.Exp(1) + acc()
	}
	sort.Float64s(xs)
	single := xs[int(0.9*float64(samples))]
	if multi < single*0.9 {
		t.Errorf("multi-leader C1 %v implausibly below single-leader %v", multi, single)
	}
}

func BenchmarkRunN1500(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := Run(Config{N: 1500, K: 3, Alpha: 2.5, Seed: uint64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}
