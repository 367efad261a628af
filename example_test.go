package plurality_test

import (
	"context"
	"fmt"

	"plurality"
)

// The registry entry point on a comfortable instance: 10k nodes, 4
// opinions, bias 2. Deterministic in the seed, so the output is stable.
func ExampleRun() {
	res, err := plurality.Run(context.Background(), "sync", plurality.Spec{
		N: 10_000, K: 4, Alpha: 2, Seed: 1,
	})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("winner:", res.Winner)
	fmt.Println("plurality won:", res.PluralityWon)
	fmt.Println("full consensus:", res.FullConsensus)
	// Output:
	// winner: 0
	// plurality won: true
	// full consensus: true
}

// Every protocol — the paper's three algorithms and the four classical
// baselines — is served by the same Run call.
func ExampleProtocols() {
	for _, name := range plurality.Protocols()[:7] {
		fmt.Println(name)
	}
	// Output:
	// sync
	// leader
	// decentralized
	// pull-voting
	// two-choices
	// 3-majority
	// undecided-state
}

// Streaming a run: the Observer sees every snapshot as it is recorded, and
// DiscardTrajectory keeps the run's recording memory O(1) — the pattern for
// million-node runs.
func ExampleObserverFunc() {
	points := 0
	res, err := plurality.Run(context.Background(), "sync", plurality.Spec{
		N: 10_000, K: 4, Alpha: 2, Seed: 1,
		DiscardTrajectory: true,
		Observer: plurality.ObserverFunc(func(p plurality.TrajectoryPoint) {
			points++
		}),
	})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("streamed snapshots:", points > 0)
	fmt.Println("accumulated points:", len(res.Trajectory))
	// Output:
	// streamed snapshots: true
	// accumulated points: 0
}

// Building a skewed assignment and inspecting its bias before running.
func ExamplePlantedBias() {
	assign, err := plurality.PlantedBias(1000, 2, 3, 7)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	counts, _ := plurality.Counts(assign, 2)
	fmt.Println("counts:", counts)
	// Output:
	// counts: [750 250]
}

// Interpreting asynchronous results in the paper's time units.
func ExampleEstimateTimeUnit() {
	unit, err := plurality.EstimateTimeUnit(plurality.LatencySpec{Kind: "exp", Mean: 1})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	// The unit for Exp(1) latencies is F⁻¹(0.9) of T3 ≈ 9-11 steps.
	fmt.Println("plausible:", unit > 8 && unit < 12)
	// Output:
	// plausible: true
}

// A small factor-grid sweep with seeded replications, rendered as CSV.
func ExampleSweep() {
	res, err := plurality.Sweep(context.Background(), plurality.SweepConfig{
		Protocol: "sync",
		Base:     plurality.Spec{Seed: 1},
		Ns:       []int{1000},
		Ks:       []int{2, 4},
		Alphas:   []float64{3},
		Reps:     2,
	})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	for _, cell := range res.Cells {
		fmt.Printf("n=%d k=%d won=%.0f\n", cell.N, cell.K, cell.Metrics["plurality_won"].Mean)
	}
	// Output:
	// n=1000 k=2 won=1
	// n=1000 k=4 won=1
}

// Checkpointing a run half way, shipping the snapshot through its wire
// format, and resuming it bit-exactly: the resumed Result is the one the
// uninterrupted run would have produced — pause, copy and continue are
// free of drift.
func ExampleResume() {
	ctx := context.Background()
	spec := plurality.Spec{N: 2_000, K: 3, Alpha: 2, Seed: 5}
	plain, err := plurality.Run(ctx, "leader", spec)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	spec.Checkpoint = plurality.CheckpointSpec{SnapshotAt: plain.Duration / 2, Halt: true}
	half, err := plurality.Run(ctx, "leader", spec)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	blob, err := half.Snapshot.Encode() // a self-contained, file-ready blob
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	snapshot, err := plurality.DecodeSnapshot(blob)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	res, err := plurality.Resume(ctx, snapshot, nil)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("same winner:", res.Winner == plain.Winner)
	fmt.Println("same consensus time:", res.ConsensusTime == plain.ConsensusTime)
	fmt.Println("same trajectory length:", len(res.Trajectory) == len(plain.Trajectory))
	// Output:
	// same winner: true
	// same consensus time: true
	// same trajectory length: true
}

// Warm-started replication: one shared burn-in snapshot, several divergent
// futures. Replication 0 continues bit-exactly; the others perturb every
// RNG stream with a deterministic label.
func ExampleRunBatchFrom() {
	ctx := context.Background()
	spec := plurality.Spec{N: 2_000, K: 3, Alpha: 2, Seed: 5,
		Checkpoint: plurality.CheckpointSpec{SnapshotAt: 10, Halt: true}}
	half, err := plurality.Run(ctx, "leader", spec)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	futures, err := plurality.RunBatchFrom(ctx, half.Snapshot, 3, 0)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("futures:", len(futures))
	fmt.Println("all converged:", futures[0].FullConsensus &&
		futures[1].FullConsensus && futures[2].FullConsensus)
	fmt.Println("futures diverged:", futures[1].ConsensusTime != futures[2].ConsensusTime)
	// Output:
	// futures: 3
	// all converged: true
	// futures diverged: true
}
