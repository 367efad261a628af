package syncgen

import (
	"math"
	"testing"

	"plurality/internal/adversary"
	"plurality/internal/opinion"
	"plurality/internal/topo"
	"plurality/internal/xrand"
)

func TestRunValidation(t *testing.T) {
	cases := []Config{
		{N: 1, K: 2},
		{N: 10, K: 0},
		{N: 10, K: 2, Gamma: 1.5},
		{N: 10, K: 2, Assignment: make([]opinion.Opinion, 3)},
		{N: 10, K: 2, Schedule: ScheduleKind(99)},
	}
	for i, cfg := range cases {
		if _, err := Run(cfg); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

func TestConvergesTwoOpinionsAdaptive(t *testing.T) {
	res, err := Run(Config{N: 2000, K: 2, Alpha: 1.5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Outcome.FullConsensus {
		t.Fatalf("no consensus after %d steps: %v", res.Steps, res.Outcome)
	}
	if !res.Outcome.PluralityWon {
		t.Errorf("plurality lost: %v", res.Outcome)
	}
}

func TestConvergesManyOpinions(t *testing.T) {
	res, err := Run(Config{N: 5000, K: 10, Alpha: 2, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Outcome.FullConsensus || !res.Outcome.PluralityWon {
		t.Fatalf("outcome %v after %d steps", res.Outcome, res.Steps)
	}
}

func TestConvergesTheoreticalSchedule(t *testing.T) {
	res, err := Run(Config{N: 5000, K: 4, Alpha: 2, Seed: 3, Schedule: ScheduleTheoretical})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Outcome.FullConsensus {
		t.Fatalf("theoretical schedule failed to converge in %d steps", res.Steps)
	}
	if len(res.TwoChoicesSteps) == 0 {
		t.Error("no two-choices steps recorded")
	}
	if res.TwoChoicesSteps[0] != 1 {
		t.Errorf("first two-choices step %d, want t_1 = 1", res.TwoChoicesSteps[0])
	}
}

func TestDeterministicReplay(t *testing.T) {
	cfg := Config{N: 1000, K: 3, Alpha: 2, Seed: 42}
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Steps != b.Steps || a.Outcome.Winner != b.Outcome.Winner {
		t.Fatalf("replay diverged: %d/%d steps, winners %d/%d",
			a.Steps, b.Steps, a.Outcome.Winner, b.Outcome.Winner)
	}
	if len(a.Trajectory) != len(b.Trajectory) {
		t.Fatal("replay trajectories differ in length")
	}
	for i := range a.Trajectory {
		if a.Trajectory[i] != b.Trajectory[i] {
			t.Fatalf("replay trajectories diverge at %d", i)
		}
	}
}

func TestFixedAssignmentNotMutated(t *testing.T) {
	r := xrand.New(7)
	assign := opinion.PlantedBias(500, 2, 2, r)
	orig := make([]opinion.Opinion, len(assign))
	copy(orig, assign)
	if _, err := Run(Config{N: 500, K: 2, Assignment: assign, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	for i := range assign {
		if assign[i] != orig[i] {
			t.Fatal("Run mutated the caller's assignment")
		}
	}
}

func TestMonochromaticInputStaysPut(t *testing.T) {
	assign := make([]opinion.Opinion, 100) // all opinion 0
	res, err := Run(Config{N: 100, K: 2, Assignment: assign, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Outcome.FullConsensus || res.Outcome.Winner != 0 {
		t.Fatalf("monochromatic input broke: %v", res.Outcome)
	}
	if res.Steps > 1 {
		t.Errorf("monochromatic input took %d steps", res.Steps)
	}
}

func TestGenerationsNeverExceedBudget(t *testing.T) {
	res, err := Run(Config{N: 3000, K: 5, Alpha: 1.8, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	gStar := GenerationBudget(3000, res.Trajectory[0].Bias) + 2 // default budget
	for _, p := range res.Trajectory {
		if p.MaxGen > gStar {
			t.Fatalf("generation %d exceeds budget %d", p.MaxGen, gStar)
		}
	}
}

func TestGenerationEventsOrdered(t *testing.T) {
	res, err := Run(Config{N: 5000, K: 4, Alpha: 2, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Generations) == 0 {
		t.Fatal("no generation events recorded")
	}
	for i, ev := range res.Generations {
		if ev.Gen != i+1 {
			t.Errorf("generation event %d has Gen=%d", i, ev.Gen)
		}
		if ev.EstablishedStep >= 0 && ev.EstablishedStep < ev.BirthStep {
			t.Errorf("gen %d established before birth", ev.Gen)
		}
		if i > 0 && ev.BirthStep < res.Generations[i-1].BirthStep {
			t.Errorf("gen %d born before gen %d", ev.Gen, ev.Gen-1)
		}
	}
}

func TestBiasSquaringAcrossGenerations(t *testing.T) {
	// Lemma 4: the bias at the birth of generation i is close to the square
	// of the parent generation's bias. With alpha=2 and plenty of nodes the
	// relative error should be modest for the first generation.
	res, err := Run(Config{N: 200000, K: 2, Alpha: 2, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Generations) == 0 {
		t.Fatal("no generations")
	}
	first := res.Generations[0]
	// Parent bias is the initial assignment bias (generation 0).
	alpha0 := res.Trajectory[0].Bias
	want := alpha0 * alpha0
	if first.BirthBias < want*0.8 || first.BirthBias > want*1.25 {
		t.Errorf("generation 1 birth bias %v, want ~%v", first.BirthBias, want)
	}
}

func TestPluralitySuccessRate(t *testing.T) {
	// Theorem 1 is a whp. statement; at moderate n with comfortable bias
	// the success rate across seeds should be high.
	wins := 0
	const trials = 20
	for seed := 0; seed < trials; seed++ {
		res, err := Run(Config{N: 2000, K: 5, Alpha: 2, Seed: uint64(seed)})
		if err != nil {
			t.Fatal(err)
		}
		if res.Outcome.PluralityWon && res.Outcome.FullConsensus {
			wins++
		}
	}
	if wins < trials-2 {
		t.Errorf("plurality won only %d/%d runs", wins, trials)
	}
}

func TestUniformInputStillConverges(t *testing.T) {
	// Failure injection: α ≈ 1 (no planted bias). Consensus on *some*
	// opinion should still be reached (correctness of plurality cannot be
	// demanded); the run must terminate before MaxSteps on most seeds.
	r := xrand.New(100)
	assign := opinion.Uniform(2000, 2, r)
	res, err := Run(Config{N: 2000, K: 2, Assignment: assign, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Outcome.FullConsensus {
		t.Logf("uniform input did not converge in %d steps (acceptable, whp-only)", res.Steps)
	}
}

func TestLifeCycleLengthFiniteForHugeBias(t *testing.T) {
	// α^{2^i} would overflow float64 quickly; the log-domain form must stay
	// finite and positive.
	for i := 1; i < 60; i++ {
		x := LifeCycleLength(1e6, 100, 0.5, i)
		if math.IsNaN(x) || math.IsInf(x, 0) {
			t.Fatalf("X_%d = %v", i, x)
		}
		if x < 0 {
			t.Fatalf("X_%d = %v < 0", i, x)
		}
	}
}

func TestLifeCycleLengthBoundedByLogK(t *testing.T) {
	// §2.2: X_i = O(log k) for all i.
	for _, k := range []int{2, 16, 256, 4096} {
		bound := 3*math.Log(float64(k))/math.Log(1.5) + 10
		for i := 1; i < 20; i++ {
			if x := LifeCycleLength(1.01, k, 0.5, i); x > bound {
				t.Errorf("X_%d(k=%d) = %v exceeds O(log k) bound %v", i, k, x, bound)
			}
		}
	}
}

func TestGenerationBudget(t *testing.T) {
	// α = 2, n = 2^16: log2 log2 n = 4.
	if got := GenerationBudget(1<<16, 2); got != 4 {
		t.Errorf("GenerationBudget(2^16, 2) = %d, want 4", got)
	}
	if got := GenerationBudget(100, 1e12); got != 1 {
		t.Errorf("huge alpha budget = %d, want 1", got)
	}
	if got := GenerationBudget(1, 2); got != 1 {
		t.Errorf("tiny n budget = %d, want 1", got)
	}
}

func TestTwoChoicesTimesMonotone(t *testing.T) {
	times := TwoChoicesTimes(1.5, 8, 6, 0.5)
	if len(times) != 6 {
		t.Fatalf("len = %d", len(times))
	}
	if times[0] != 1 {
		t.Errorf("t_1 = %d, want 1", times[0])
	}
	for i := 1; i < len(times); i++ {
		if times[i] <= times[i-1] {
			t.Fatalf("schedule not strictly increasing: %v", times)
		}
	}
}

func TestXiDecreasing(t *testing.T) {
	// As i grows the (idealized) bias explodes, so the life-cycles shrink
	// toward the O(1) floor (equations (10) and (11) of the paper).
	prev := math.Inf(1)
	for i := 1; i <= 10; i++ {
		x := LifeCycleLength(1.2, 64, 0.5, i)
		if x > prev+1e-9 {
			t.Fatalf("X_%d = %v > X_%d = %v", i, x, i-1, prev)
		}
		prev = x
	}
}

func TestPropagationTailPositive(t *testing.T) {
	for _, n := range []int{2, 10, 1000, 1 << 20} {
		if got := PropagationTail(n, 0.5); got < 1 {
			t.Errorf("PropagationTail(%d) = %d", n, got)
		}
	}
}

func TestScheduleKindString(t *testing.T) {
	if ScheduleTheoretical.String() != "theoretical" ||
		ScheduleAdaptive.String() != "adaptive" ||
		ScheduleKind(0).String() != "unknown" {
		t.Error("ScheduleKind.String broken")
	}
}

// BenchmarkStep measures one chunked step (batch partner draws + delta
// tallies) on the complete graph; CI's bench-smoke job asserts 0 B/op on
// the per-topology rows of BenchmarkSyncStep below.
func BenchmarkStep(b *testing.B) {
	r := xrand.New(1)
	cols := opinion.PlantedBias(10000, 8, 2, r)
	tp := topo.NewComplete(len(cols))
	st := newState(cols, 8, 5, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.step(r, tp, i%10 == 0)
	}
}

// BenchmarkSyncStep pins the batched synchronous hot loop on every
// reference topology kind, and under the drop adversary (f=0.3) on the
// complete graph: one full n-node step per iteration, zero allocations
// after the state warms up (asserted by CI).
func BenchmarkSyncStep(b *testing.B) {
	const n = 10000 // 100x100: factorable for the torus
	mk := func(b *testing.B) map[string]topo.Sampler {
		b.Helper()
		ring, err := topo.NewRing(n, 4)
		if err != nil {
			b.Fatal(err)
		}
		torus, err := topo.NewTorus(100, 100)
		if err != nil {
			b.Fatal(err)
		}
		reg, err := topo.NewRandomRegular(n, 8, 3)
		if err != nil {
			b.Fatal(err)
		}
		return map[string]topo.Sampler{
			"complete": topo.NewComplete(n), "ring": ring,
			"torus": torus, "random-regular": reg,
		}
	}
	run := func(b *testing.B, tp topo.Sampler, adv adversary.Config) {
		r := xrand.New(1)
		cols := opinion.PlantedBias(n, 8, 2, r)
		st := newState(cols, 8, 6, nil)
		if adv.Kind != adversary.None {
			var err error
			if st.adv, err = adversary.Start(adv, n, st.counts(), false); err != nil {
				b.Fatal(err)
			}
			st.crash = adversary.NewCrashes(n)
		}
		bs := topo.Batch(tp)
		st.step(r, bs, false) // warm the scratch buffers
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			st.step(r, bs, i%10 == 0)
		}
	}
	for kind, tp := range mk(b) {
		b.Run(kind, func(b *testing.B) { run(b, tp, adversary.Config{}) })
	}
	b.Run("drop-complete", func(b *testing.B) {
		run(b, topo.NewComplete(n), adversary.Config{Kind: adversary.Drop, Fraction: 0.3, Seed: 1})
	})
}

func BenchmarkRunN10k(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := Run(Config{N: 10000, K: 8, Alpha: 2, Seed: uint64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSyncStepLargeK pins the wide-opinion-space hot loop: one full
// synchronous step at n = 100000 over k = 1024 opinions, which puts the
// tally in sparse mode (k > sparseTallyThreshold) so per-step bookkeeping
// scales with the occupied opinions, not with k. CI records its throughput
// next to the dense-mode BenchmarkSyncStep rows; the sparse rows may grow
// as generations colonize, so this benchmark asserts feasibility, not
// zero allocations.
func BenchmarkSyncStepLargeK(b *testing.B) {
	const n, k = 100000, 1024
	r := xrand.New(1)
	cols := opinion.PlantedBias(n, k, 2, r)
	tp := topo.NewComplete(n)
	st := newState(cols, k, 8, nil)
	if !st.tally.sparse {
		b.Fatalf("k = %d must select the sparse tally", k)
	}
	bs := topo.Batch(tp)
	st.step(r, bs, false) // warm the scratch buffers
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.step(r, bs, i%10 == 0)
	}
}
