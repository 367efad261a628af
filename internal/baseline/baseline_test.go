package baseline

import (
	"testing"

	"plurality/internal/metrics"
	"plurality/internal/opinion"
	"plurality/internal/snap"
	"plurality/internal/topo"
	"plurality/internal/xrand"
)

func TestNewRule(t *testing.T) {
	r := xrand.New(1)
	for _, name := range RuleNames() {
		rule, err := NewRule(name, r)
		if err != nil {
			t.Fatalf("NewRule(%q): %v", name, err)
		}
		if rule.Name() != name {
			t.Errorf("rule %q reports name %q", name, rule.Name())
		}
		if rule.Samples() < 1 {
			t.Errorf("rule %q samples %d", name, rule.Samples())
		}
	}
	if _, err := NewRule("nope", r); err == nil {
		t.Error("unknown rule accepted")
	}
	if _, err := NewRule("3-majority", nil); err == nil {
		t.Error("3-majority without RNG accepted")
	}
}

func TestPullVotingRule(t *testing.T) {
	var p PullVoting
	if got := p.Update(1, []opinion.Opinion{2}); got != 2 {
		t.Errorf("pull update = %d", got)
	}
	if got := p.Update(1, []opinion.Opinion{opinion.None}); got != 1 {
		t.Errorf("pull of undecided = %d", got)
	}
}

func TestTwoChoicesRule(t *testing.T) {
	var tc TwoChoices
	if got := tc.Update(0, []opinion.Opinion{1, 1}); got != 1 {
		t.Errorf("agreeing samples: %d", got)
	}
	if got := tc.Update(0, []opinion.Opinion{1, 2}); got != 0 {
		t.Errorf("disagreeing samples: %d", got)
	}
}

func TestThreeMajorityRule(t *testing.T) {
	m := &ThreeMajority{R: xrand.New(2)}
	if got := m.Update(0, []opinion.Opinion{1, 1, 2}); got != 1 {
		t.Errorf("majority: %d", got)
	}
	if got := m.Update(0, []opinion.Opinion{2, 1, 2}); got != 2 {
		t.Errorf("majority (split positions): %d", got)
	}
	// Three distinct: result must be one of the samples.
	seen := map[opinion.Opinion]bool{}
	for i := 0; i < 100; i++ {
		got := m.Update(0, []opinion.Opinion{3, 4, 5})
		if got != 3 && got != 4 && got != 5 {
			t.Fatalf("tie-break outside samples: %d", got)
		}
		seen[got] = true
	}
	if len(seen) != 3 {
		t.Errorf("tie-break not random: saw %v", seen)
	}
}

func TestUndecidedRule(t *testing.T) {
	var u Undecided
	if got := u.Update(opinion.None, []opinion.Opinion{3}); got != 3 {
		t.Errorf("undecided adopting: %d", got)
	}
	if got := u.Update(1, []opinion.Opinion{2}); got != opinion.None {
		t.Errorf("conflict should undecide: %d", got)
	}
	if got := u.Update(1, []opinion.Opinion{1}); got != 1 {
		t.Errorf("agreement should keep: %d", got)
	}
	if got := u.Update(1, []opinion.Opinion{opinion.None}); got != 1 {
		t.Errorf("pulling undecided should keep: %d", got)
	}
}

// TestUndecidedConsensusCountsEveryNode pins the population of the
// undecided-state dynamics: an undecided node agrees with nobody, so full
// consensus comes at the first round in which every node holds the winner,
// and ε-convergence at the first round in which (1−ε)·n nodes, not (1−ε)
// of the decided ones, hold the plurality. Each round's opinions are read
// off a capture of the run, not off the recorder under test.
func TestUndecidedConsensusCountsEveryNode(t *testing.T) {
	const n, k = 10000, 4
	cfg := Config{N: n, K: k, Alpha: 2, Seed: 1}
	initial, _, plurality := opinion.Initial(n, k, nil, cfg.Alpha, xrand.New(cfg.Seed))
	held := []opinion.Counts{opinion.CountOf(initial, k)} // held[r]: after round r
	cfg.Ckpt = &snap.Checkpoint{At: 1, Every: 1, Sink: func(state []byte, _ float64, _ uint64) {
		st := &roundsState{perTick: 1, k: k, stepRNG: xrand.New(0), rule: Undecided{},
			rec: metrics.NewRecorder(0, true, nil)}
		c := snap.NewDecoder(state)
		st.layout(c)
		if err := c.Finish(); err != nil {
			t.Fatal(err)
		}
		held = append(held, opinion.CountOf(st.cols, k))
	}}
	res, err := RunSync(Undecided{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The run captures every round but its last, which FinalCounts holds.
	held = append(held, res.FinalCounts)
	if len(held) != res.Rounds+1 {
		t.Fatalf("%d rounds held for a run of %d", len(held)-1, res.Rounds)
	}
	first := func(pred func(opinion.Counts) bool) float64 {
		for r, c := range held {
			if pred(c) {
				return float64(r)
			}
		}
		return -1
	}
	out := res.Outcome
	all := first(func(c opinion.Counts) bool { return c[out.Winner] == n })
	if !out.FullConsensus || out.ConsensusTime != all {
		t.Errorf("full consensus %v at round %v; every node first holds the winner at round %v",
			out.FullConsensus, out.ConsensusTime, all)
	}
	eps := first(func(c opinion.Counts) bool { return float64(c[plurality]) >= (1-out.Eps)*n })
	// Every round is recorded, so ε-convergence is that exact round.
	if !out.EpsReached || out.EpsTime != eps {
		t.Errorf("ε-convergence %v at round %v; (1−ε)·n nodes first hold the plurality at round %v",
			out.EpsReached, out.EpsTime, eps)
	}
}

func TestRunSyncConvergence(t *testing.T) {
	r := xrand.New(1)
	for _, name := range RuleNames() {
		rule, err := NewRule(name, r)
		if err != nil {
			t.Fatal(err)
		}
		res, err := RunSync(rule, Config{N: 1000, K: 2, Alpha: 2, Seed: 7})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !res.Outcome.FullConsensus {
			t.Errorf("%s did not reach consensus in %d rounds", name, res.Rounds)
		}
	}
}

func TestRunSequentialConvergence(t *testing.T) {
	r := xrand.New(2)
	for _, name := range []string{"two-choices", "3-majority", "undecided-state"} {
		rule, err := NewRule(name, r)
		if err != nil {
			t.Fatal(err)
		}
		res, err := RunSequential(rule, Config{N: 500, K: 2, Alpha: 3, Seed: 11})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !res.Outcome.FullConsensus {
			t.Errorf("%s (sequential) did not converge in %d rounds", name, res.Rounds)
		}
	}
}

func TestStrongBiasPluralityWins(t *testing.T) {
	r := xrand.New(3)
	for _, name := range []string{"two-choices", "3-majority"} {
		rule, err := NewRule(name, r)
		if err != nil {
			t.Fatal(err)
		}
		wins := 0
		const trials = 10
		for seed := 0; seed < trials; seed++ {
			res, err := RunSync(rule, Config{N: 2000, K: 3, Alpha: 3, Seed: uint64(seed)})
			if err != nil {
				t.Fatal(err)
			}
			if res.Outcome.PluralityWon {
				wins++
			}
		}
		if wins < trials-1 {
			t.Errorf("%s: plurality won only %d/%d", name, wins, trials)
		}
	}
}

func TestPullVotingSlowerThanTwoChoices(t *testing.T) {
	// §1.1: pull voting needs Ω(n) expected rounds; two-choices O(log n).
	// At n=1000 the gap should be unmistakable on average.
	r := xrand.New(4)
	pull, _ := NewRule("pull-voting", r)
	two, _ := NewRule("two-choices", r)
	var pullTotal, twoTotal int
	const trials = 5
	for seed := 0; seed < trials; seed++ {
		rp, err := RunSync(pull, Config{N: 1000, K: 2, Alpha: 2, Seed: uint64(seed), RecordEvery: 10})
		if err != nil {
			t.Fatal(err)
		}
		rt, err := RunSync(two, Config{N: 1000, K: 2, Alpha: 2, Seed: uint64(seed), RecordEvery: 10})
		if err != nil {
			t.Fatal(err)
		}
		pullTotal += rp.Rounds
		twoTotal += rt.Rounds
	}
	if pullTotal <= 2*twoTotal {
		t.Errorf("pull voting (%d rounds) not clearly slower than two-choices (%d rounds)",
			pullTotal, twoTotal)
	}
}

func TestMaxRoundsRespected(t *testing.T) {
	r := xrand.New(5)
	rule, _ := NewRule("pull-voting", r)
	res, err := RunSync(rule, Config{N: 5000, K: 2, Alpha: 1.01, Seed: 1, MaxRounds: 7})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds > 7 {
		t.Errorf("ran %d rounds beyond MaxRounds", res.Rounds)
	}
}

func TestAssignmentNotMutated(t *testing.T) {
	r := xrand.New(6)
	assign := opinion.PlantedBias(300, 2, 2, r)
	orig := make([]opinion.Opinion, len(assign))
	copy(orig, assign)
	rule, _ := NewRule("undecided-state", r)
	if _, err := RunSequential(rule, Config{N: 300, K: 2, Assignment: assign, Seed: 3}); err != nil {
		t.Fatal(err)
	}
	for i := range orig {
		if assign[i] != orig[i] {
			t.Fatal("sequential run mutated caller's assignment")
		}
	}
}

func TestDeterministicReplay(t *testing.T) {
	r := xrand.New(7)
	rule, _ := NewRule("3-majority", r)
	cfg := Config{N: 500, K: 3, Alpha: 2, Seed: 99}
	a, err := RunSync(rule, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rule2, _ := NewRule("3-majority", xrand.New(7))
	b, err := RunSync(rule2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Rounds != b.Rounds || a.Outcome.Winner != b.Outcome.Winner {
		t.Fatalf("replay diverged: %d vs %d rounds", a.Rounds, b.Rounds)
	}
}

func TestValidation(t *testing.T) {
	r := xrand.New(8)
	rule, _ := NewRule("pull-voting", r)
	if _, err := RunSync(rule, Config{N: 1, K: 2}); err == nil {
		t.Error("N=1 accepted")
	}
	if _, err := RunSequential(rule, Config{N: 10, K: 0}); err == nil {
		t.Error("K=0 accepted")
	}
	if _, err := RunSync(rule, Config{N: 10, K: 2, Assignment: make([]opinion.Opinion, 9)}); err == nil {
		t.Error("bad assignment length accepted")
	}
}

// BenchmarkThreeMajorityRound times whole RunSync 3-majority runs at
// n=10⁴, k=8, α=2 on the complete graph and on a random 8-regular graph
// built outside the timer; ns/round divides the time by the rounds run.
func BenchmarkThreeMajorityRound(b *testing.B) {
	const n, k = 10000, 8
	rr8, err := topo.NewRandomRegular(n, 8, 1)
	if err != nil {
		b.Fatal(err)
	}
	cols := opinion.PlantedBias(n, k, 2, xrand.New(1))
	for _, g := range []struct {
		name string
		tp   topo.Sampler
	}{{"complete", topo.NewComplete(n)}, {"rr8", rr8}} {
		b.Run(g.name, func(b *testing.B) {
			rounds := 0
			for b.Loop() {
				res, err := RunSync(&ThreeMajority{R: xrand.New(2)}, Config{
					N: n, K: k, Assignment: cols, Seed: 3, Topo: g.tp, DiscardTrajectory: true,
				})
				if err != nil {
					b.Fatal(err)
				}
				rounds += res.Rounds
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(rounds), "ns/round")
		})
	}
}
