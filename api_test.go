package plurality

import (
	"context"
	"math"
	"testing"
)

// ctx is the background context every API test runs under.
var ctx = context.Background()

func TestRunSynchronousAPI(t *testing.T) {
	res, err := Run(ctx, "sync", Spec{N: 2000, K: 4, Alpha: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.FullConsensus || !res.PluralityWon {
		t.Fatalf("outcome %v", res)
	}
	if res.Winner != 0 {
		t.Errorf("winner %d, want 0 (planted)", res.Winner)
	}
	if len(res.Trajectory) == 0 || res.Trajectory[0].Time != 0 {
		t.Error("trajectory missing initial snapshot")
	}
	if res.Stats["generations"] < 1 {
		t.Error("no generations reported")
	}
}

func TestRunSynchronousTheoretical(t *testing.T) {
	res, err := Run(ctx, "sync", Spec{
		N: 2000, K: 2, Alpha: 2, Seed: 2, Sync: SyncOptions{TheoreticalSchedule: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.FullConsensus {
		t.Fatalf("theoretical schedule failed: %v", res)
	}
}

func TestRunSingleLeaderAPI(t *testing.T) {
	res, err := Run(ctx, "leader", Spec{N: 800, K: 3, Alpha: 2.5, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !res.FullConsensus || !res.PluralityWon {
		t.Fatalf("outcome %v (timed out %v)", res, res.TimedOut)
	}
	if res.Stats["c1"] <= 0 {
		t.Error("C1 not reported")
	}
	if res.Stats["events"] <= 0 {
		t.Error("events not reported")
	}
}

func TestRunDecentralizedAPI(t *testing.T) {
	res, err := Run(ctx, "decentralized", Spec{N: 1500, K: 2, Alpha: 3, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !res.FullConsensus || !res.PluralityWon {
		t.Fatalf("outcome %v (timed out %v)", res, res.TimedOut)
	}
	if res.Stats["participating_frac"] < 0.7 {
		t.Errorf("participating fraction %v", res.Stats["participating_frac"])
	}
	if res.Stats["clustering_time"] <= 0 {
		t.Error("clustering time missing")
	}
}

func TestRunBaselineAPI(t *testing.T) {
	for _, rule := range Baselines() {
		res, err := Run(ctx, rule, Spec{N: 600, K: 2, Alpha: 3, Seed: 5})
		if err != nil {
			t.Fatalf("%s: %v", rule, err)
		}
		if !res.FullConsensus {
			t.Errorf("%s did not converge", rule)
		}
	}
	if _, err := Run(ctx, "bogus", Spec{N: 10, K: 2}); err == nil {
		t.Error("unknown baseline accepted")
	}
}

func TestRunBaselineSequential(t *testing.T) {
	res, err := Run(ctx, "3-majority", Spec{
		N: 400, K: 2, Alpha: 3, Seed: 6, Baseline: BaselineOptions{Sequential: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.FullConsensus {
		t.Error("sequential 3-majority did not converge")
	}
}

func TestCustomAssignmentRoundTrip(t *testing.T) {
	assign, err := PlantedBias(1000, 4, 2, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Bias(assign, 4)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(b-2) > 0.2 {
		t.Errorf("bias %v, want ~2", b)
	}
	res, err := Run(ctx, "sync", Spec{N: 1000, K: 4, Assignment: assign, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !res.FullConsensus {
		t.Error("custom assignment run failed")
	}
}

func TestAssignmentValidation(t *testing.T) {
	if _, err := PlantedBias(10, 0, 2, 1); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := PlantedBias(10, 2, 0.5, 1); err == nil {
		t.Error("alpha<1 accepted")
	}
	if _, err := Run(ctx, "sync", Spec{N: 10, K: 2, Assignment: []int{5, 0, 0, 0, 0, 0, 0, 0, 0, 0}}); err == nil {
		t.Error("out-of-range assignment accepted")
	}
	if _, err := Run(ctx, "sync", Spec{N: 10, K: 2, Assignment: []int{0}}); err == nil {
		t.Error("short assignment accepted")
	}
}

func TestLatencySpecs(t *testing.T) {
	for _, spec := range []LatencySpec{
		{},
		{Kind: "exp", Mean: 0.5},
		{Kind: "const", Mean: 1},
		{Kind: "uniform", Mean: 1},
		{Kind: "erlang", Mean: 1, Shape: 3},
	} {
		res, err := Run(ctx, "leader", Spec{
			N: 400, K: 2, Alpha: 3, Seed: 9, Latency: spec,
		})
		if err != nil {
			t.Fatalf("latency %+v: %v", spec, err)
		}
		if !res.FullConsensus {
			t.Errorf("latency %+v: no consensus", spec)
		}
	}
	if _, err := Run(ctx, "leader", Spec{N: 400, K: 2, Latency: LatencySpec{Kind: "bogus"}}); err == nil {
		t.Error("unknown latency kind accepted")
	}
}

func TestZipfAndUniformAssignments(t *testing.T) {
	z, err := ZipfAssignment(5000, 10, 1.5, 1)
	if err != nil {
		t.Fatal(err)
	}
	counts, err := Counts(z, 10)
	if err != nil {
		t.Fatal(err)
	}
	if counts[0] <= counts[9] {
		t.Error("Zipf assignment not skewed")
	}
	u, err := UniformAssignment(100, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(u) != 100 {
		t.Error("uniform assignment wrong length")
	}
}

func TestMinTheoremBias(t *testing.T) {
	if MinTheoremBias(100, 1) != 1 {
		t.Error("k=1 bias should be 1")
	}
	b := MinTheoremBias(1_000_000, 10)
	if b <= 1 || b > 2 {
		t.Errorf("MinTheoremBias(1e6, 10) = %v", b)
	}
}

func TestEstimateTimeUnit(t *testing.T) {
	u, err := EstimateTimeUnit(LatencySpec{})
	if err != nil {
		t.Fatal(err)
	}
	if u < 5 || u > 15 {
		t.Errorf("time unit %v for exp(1), want ~10", u)
	}
	slow, err := EstimateTimeUnit(LatencySpec{Mean: 10})
	if err != nil {
		t.Fatal(err)
	}
	if slow < 5*u {
		t.Errorf("time unit %v for mean-10 latency, want ~10× the mean-1 value %v", slow, u)
	}
}

// TestTimeUnitIsOnePerLatency pins that C1 belongs to the latency law:
// leader runs on two seeds report the same Stats["c1"], and it is
// EstimateTimeUnit's value for their latency.
func TestTimeUnitIsOnePerLatency(t *testing.T) {
	lat := LatencySpec{Kind: "exp", Mean: 2}
	want, err := EstimateTimeUnit(lat)
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range []uint64{3, 4} {
		res, err := Run(ctx, "leader", Spec{N: 300, K: 2, Alpha: 2, Seed: seed, MaxTime: 5, Latency: lat})
		if err != nil {
			t.Fatal(err)
		}
		if got := res.Stats["c1"]; got != want {
			t.Errorf("seed %d: Stats[\"c1\"] = %v, EstimateTimeUnit = %v", seed, got, want)
		}
	}
}

func TestMaxGenMonotoneAcrossProtocols(t *testing.T) {
	// Protocol invariant: the maximum generation present never decreases.
	runs := []func() (*Result, error){
		func() (*Result, error) {
			return Run(ctx, "sync", Spec{N: 2000, K: 4, Alpha: 2, Seed: 31})
		},
		func() (*Result, error) {
			return Run(ctx, "leader", Spec{N: 800, K: 4, Alpha: 2.5, Seed: 31})
		},
		func() (*Result, error) {
			return Run(ctx, "decentralized", Spec{N: 1200, K: 4, Alpha: 2.5, Seed: 31})
		},
	}
	for i, run := range runs {
		res, err := run()
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		prevGen := -1
		prevT := -1.0
		for _, p := range res.Trajectory {
			if p.MaxGen < prevGen {
				t.Errorf("run %d: max generation decreased %d -> %d at t=%v",
					i, prevGen, p.MaxGen, p.Time)
			}
			if p.Time < prevT {
				t.Errorf("run %d: trajectory time went backwards at %v", i, p.Time)
			}
			prevGen, prevT = p.MaxGen, p.Time
		}
	}
}

func TestSchedulesAgreeOnWinner(t *testing.T) {
	// Both schedules must solve the same instance; on a comfortably biased
	// input they elect the same (planted) winner.
	assign, err := PlantedBias(3000, 4, 2.5, 33)
	if err != nil {
		t.Fatal(err)
	}
	adaptive, err := Run(ctx, "sync", Spec{N: 3000, K: 4, Assignment: assign, Seed: 33})
	if err != nil {
		t.Fatal(err)
	}
	theoretical, err := Run(ctx, "sync", Spec{
		N: 3000, K: 4, Assignment: assign, Seed: 33, Sync: SyncOptions{TheoreticalSchedule: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !adaptive.PluralityWon || !theoretical.PluralityWon {
		t.Errorf("schedules disagree with the plantation: adaptive=%v theoretical=%v",
			adaptive.PluralityWon, theoretical.PluralityWon)
	}
	if adaptive.Winner != theoretical.Winner {
		t.Errorf("winners differ: %d vs %d", adaptive.Winner, theoretical.Winner)
	}
}

func TestFinalCountsConserveNodes(t *testing.T) {
	res, err := Run(ctx, "decentralized", Spec{N: 1000, K: 3, Alpha: 3, Seed: 35})
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, c := range res.FinalCounts {
		total += c
	}
	if total != 1000 {
		t.Errorf("final counts sum to %d, want 1000", total)
	}
}

func TestResultString(t *testing.T) {
	res, err := Run(ctx, "sync", Spec{N: 500, K: 2, Alpha: 3, Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	if res.String() == "" {
		t.Error("empty Result.String()")
	}
}
