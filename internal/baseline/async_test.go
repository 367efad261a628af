package baseline

import (
	"crypto/sha256"
	"fmt"
	"os"
	"strconv"
	"testing"

	"plurality/internal/opinion"
	"plurality/internal/sim"
	"plurality/internal/xrand"
)

func TestRunPoissonConvergence(t *testing.T) {
	r := xrand.New(1)
	for _, name := range []string{"two-choices", "3-majority", "undecided-state"} {
		rule, err := NewRule(name, r)
		if err != nil {
			t.Fatal(err)
		}
		res, err := RunPoisson(rule, Config{N: 600, K: 2, Alpha: 3, Seed: 5}, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !res.Outcome.FullConsensus {
			t.Errorf("%s (poisson) did not converge by t=%d", name, res.Rounds)
		}
	}
}

// TestRunPoissonExactEpsTime checks that the Poisson runner notes the
// ε-hit where a count changes: at or before the first recorded point that
// meets 1−ε, and strictly before it on every rule here, whose counts cross
// between record points.
func TestRunPoissonExactEpsTime(t *testing.T) {
	for _, name := range []string{"two-choices", "3-majority", "undecided-state"} {
		rule, err := NewRule(name, xrand.New(3))
		if err != nil {
			t.Fatal(err)
		}
		res, err := RunPoisson(rule, Config{N: 1000, K: 3, Alpha: 2, Seed: 5, RecordEvery: 2}, nil)
		if err != nil {
			t.Fatal(err)
		}
		out := res.Outcome
		first := -1.0
		for _, p := range res.Trajectory {
			if p.PluralityFrac >= 1-out.Eps {
				first = p.Time
				break
			}
		}
		if first < 0 {
			t.Fatalf("%s: no recorded point reached 1−ε", name)
		}
		if !out.EpsReached || out.EpsTime >= first {
			t.Errorf("%s: ε reached %t at t=%v, first point at 1−ε t=%v", name, out.EpsReached, out.EpsTime, first)
		}
	}
}

func TestRunPoissonPluralityWins(t *testing.T) {
	r := xrand.New(2)
	rule, _ := NewRule("3-majority", r)
	wins := 0
	const trials = 8
	for seed := 0; seed < trials; seed++ {
		res, err := RunPoisson(rule, Config{N: 1000, K: 3, Alpha: 3, Seed: uint64(seed)}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.Outcome.PluralityWon {
			wins++
		}
	}
	if wins < trials-1 {
		t.Errorf("plurality won only %d/%d async runs", wins, trials)
	}
}

func TestRunPoissonDeterministic(t *testing.T) {
	mk := func() *Result {
		rule, _ := NewRule("two-choices", xrand.New(3))
		res, err := RunPoisson(rule, Config{N: 400, K: 2, Alpha: 2, Seed: 11}, nil)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := mk(), mk()
	if a.Rounds != b.Rounds || a.Outcome.Winner != b.Outcome.Winner ||
		a.Outcome.ConsensusTime != b.Outcome.ConsensusTime {
		t.Fatal("async baseline replay diverged")
	}
}

func TestRunPoissonSlowLatencyStretchesTime(t *testing.T) {
	rule, _ := NewRule("two-choices", xrand.New(4))
	fast, err := RunPoisson(rule, Config{N: 500, K: 2, Alpha: 3, Seed: 7},
		sim.ExpLatency{Rate: 2})
	if err != nil {
		t.Fatal(err)
	}
	rule2, _ := NewRule("two-choices", xrand.New(4))
	slow, err := RunPoisson(rule2, Config{N: 500, K: 2, Alpha: 3, Seed: 7},
		sim.ExpLatency{Rate: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	if !fast.Outcome.FullConsensus || !slow.Outcome.FullConsensus {
		t.Fatal("async runs did not converge")
	}
	if slow.Outcome.ConsensusTime <= fast.Outcome.ConsensusTime {
		t.Errorf("8× slower latency did not stretch time: fast %v, slow %v",
			fast.Outcome.ConsensusTime, slow.Outcome.ConsensusTime)
	}
}

func TestRunPoissonHorizonRespected(t *testing.T) {
	rule, _ := NewRule("pull-voting", xrand.New(5))
	res, err := RunPoisson(rule, Config{N: 2000, K: 2, Alpha: 1.01, Seed: 9, MaxRounds: 10}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds > 11 {
		t.Errorf("async run continued to t=%d past the horizon", res.Rounds)
	}
}

func TestRunPoissonUndecidedCountsAsNotMono(t *testing.T) {
	// An assignment with undecided nodes cannot be monochromatic until they
	// decide; exercise the undecided bookkeeping.
	assign := make([]opinion.Opinion, 100)
	for i := range assign {
		assign[i] = 0
	}
	assign[0] = opinion.None
	rule, _ := NewRule("undecided-state", xrand.New(6))
	res, err := RunPoisson(rule, Config{N: 100, K: 2, Assignment: assign, Seed: 13}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Outcome.FullConsensus {
		t.Error("single undecided node never resolved")
	}
	if res.Outcome.ConsensusTime <= 0 {
		t.Error("consensus reported at t=0 although node 0 was undecided")
	}
}

// digestPoisson folds the fields of a Poisson-kernel run that depend on
// event ordering into a SHA-256 digest; floats are rendered in hex so the
// digest changes iff the run is no longer bit-identical.
func digestPoisson(res *Result) string {
	h := sha256.New()
	hx := func(v float64) string { return strconv.FormatFloat(v, 'x', -1, 64) }
	fmt.Fprintf(h, "rule=%s rounds=%d winner=%d full=%t ct=%s counts=%v\n",
		res.Rule, res.Rounds, res.Outcome.Winner, res.Outcome.FullConsensus,
		hx(res.Outcome.ConsensusTime), res.FinalCounts)
	for _, p := range res.Trajectory {
		fmt.Fprintf(h, "p %s %s %s\n", hx(p.Time), hx(p.TopFrac), hx(p.PluralityFrac))
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestRunPoissonGolden pins the Poisson scheduler against the pre-refactor
// closure kernel (recorded at commit 85af9cc): the typed event kernel must
// replay these runs byte-for-byte. Re-recorded at plurality.EngineEpoch 2,
// when the superposed clock and the ziggurat exponential changed the
// streams on purpose, and undecided-state at EngineEpoch 3, when undecided
// nodes joined the denominator of its recorded fractions.
func TestRunPoissonGolden(t *testing.T) {
	golden := map[string]string{
		"pull-voting":     "7eecc7a20fed2ac83414208d0d175f00d6d1bbe5b8c8f60c8156d49434565b3f",
		"two-choices":     "fb21504897c7ced7e9f318ce2873e74ea7942a304acd20dc72bdfa1407f96e78",
		"3-majority":      "2304741182c345f2f6729fe468da37b1d2c54b0f38af94d726ea69bd1224257b",
		"undecided-state": "001173ce967c7f0735582c2d71fc3e8b763a5971882cc7bc4bcb336f9970b7a6",
	}
	for name, want := range golden {
		rule, err := NewRule(name, xrand.New(21))
		if err != nil {
			t.Fatal(err)
		}
		res, err := RunPoisson(rule, Config{N: 500, K: 3, Alpha: 2.5, Seed: 17}, nil)
		if err != nil {
			t.Fatal(err)
		}
		got := digestPoisson(res)
		if os.Getenv("PLURALITY_GOLDEN_RECORD") != "" {
			fmt.Printf("GOLDEN\t%q: %q,\n", name, got)
			continue
		}
		if got != want {
			t.Errorf("%s: poisson digest changed:\n  got  %s\n  want %s", name, got, want)
		}
	}
}
