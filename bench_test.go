package plurality

// This file maps every reproduction experiment (the E1–E16 index that
// internal/experiments registers — both paper figures plus each measurable
// claim) to a `go test -bench` target, and adds end-to-end protocol benchmarks so throughput
// regressions in the simulator surface in -benchmem output. Benchmarks run
// the experiments in Quick mode with one replication; cmd/experiments is the
// way to run them at full size.

import (
	"context"
	"testing"

	"plurality/internal/experiments"
	"plurality/internal/metrics"
)

func benchExperiment(b *testing.B, name string) {
	b.Helper()
	spec, err := experiments.Lookup(name)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		tb := spec.Run(experiments.Opts{Reps: 1, Quick: true, Seed: uint64(i)})
		if len(tb.Rows) == 0 {
			b.Fatalf("experiment %s produced no rows", name)
		}
	}
}

// BenchmarkFigure1 regenerates Figure 1 (steps per time unit vs 1/λ).
func BenchmarkFigure1(b *testing.B) { benchExperiment(b, "fig1") }

// BenchmarkFigure2 regenerates Figure 2 (leader phase marks per generation).
func BenchmarkFigure2(b *testing.B) { benchExperiment(b, "fig2") }

// BenchmarkTheorem1 regenerates the Theorem 1 synchronous scaling table.
func BenchmarkTheorem1(b *testing.B) { benchExperiment(b, "t1") }

// BenchmarkTheorem13 regenerates the Theorem 13 single-leader table.
func BenchmarkTheorem13(b *testing.B) { benchExperiment(b, "t13") }

// BenchmarkTheorem26 regenerates the Theorem 26 head-to-head table.
func BenchmarkTheorem26(b *testing.B) { benchExperiment(b, "t26") }

// BenchmarkTheorem27 regenerates the clustering table (Theorem 27).
func BenchmarkTheorem27(b *testing.B) { benchExperiment(b, "clustering") }

// BenchmarkTheorem28 regenerates the broadcast table (Theorem 28).
func BenchmarkTheorem28(b *testing.B) { benchExperiment(b, "broadcast") }

// BenchmarkBiasSquaring regenerates the Lemma 4 bias-squaring table.
func BenchmarkBiasSquaring(b *testing.B) { benchExperiment(b, "bias") }

// BenchmarkGenerationGrowth regenerates the Proposition 9 growth table.
func BenchmarkGenerationGrowth(b *testing.B) { benchExperiment(b, "growth") }

// BenchmarkGammaSweep regenerates the §2.2 γ-sweep table.
func BenchmarkGammaSweep(b *testing.B) { benchExperiment(b, "gamma") }

// BenchmarkLatencyAging regenerates the positive-aging latency table.
func BenchmarkLatencyAging(b *testing.B) { benchExperiment(b, "aging") }

// BenchmarkRemark14 regenerates the C1-constants table (Remark 14 /
// Example 15).
func BenchmarkRemark14(b *testing.B) { benchExperiment(b, "c1") }

// BenchmarkShootout regenerates the baseline comparison table.
func BenchmarkShootout(b *testing.B) { benchExperiment(b, "shootout") }

// BenchmarkTailGenerations regenerates the Lemma 11/25 tail table.
func BenchmarkTailGenerations(b *testing.B) { benchExperiment(b, "tail") }

// BenchmarkAblations regenerates the design-choice ablation table
// (two-choices window, generation threshold, signal loss).
func BenchmarkAblations(b *testing.B) { benchExperiment(b, "ablation") }

// BenchmarkCongestion regenerates the §4.5 leader-congestion table.
func BenchmarkCongestion(b *testing.B) { benchExperiment(b, "congestion") }

// BenchmarkAsyncShootout regenerates the asynchronous baseline comparison.
func BenchmarkAsyncShootout(b *testing.B) { benchExperiment(b, "asyncshootout") }

// --- end-to-end protocol throughput benchmarks ---

// BenchmarkProtocolSync measures one full synchronous run at n=10k.
func BenchmarkProtocolSync(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := Run(context.Background(), "sync", Spec{N: 10000, K: 8, Alpha: 2, Seed: uint64(i)})
		if err != nil {
			b.Fatal(err)
		}
		if res.Winner < 0 {
			b.Fatal("impossible winner")
		}
	}
}

// BenchmarkProtocolSingleLeader measures one full single-leader run at n=1k.
func BenchmarkProtocolSingleLeader(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := Run(context.Background(), "leader", Spec{N: 1000, K: 4, Alpha: 2.5, Seed: uint64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkProtocolDecentralized measures one full decentralized run
// (clustering + consensus) at n=1.5k.
func BenchmarkProtocolDecentralized(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := Run(context.Background(), "decentralized", Spec{N: 1500, K: 4, Alpha: 2.5, Seed: uint64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkProtocolThreeMajority measures one 3-majority run at n=10k.
func BenchmarkProtocolThreeMajority(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := Run(context.Background(), "3-majority", Spec{
			N: 10000, K: 8, Alpha: 2, Seed: uint64(i), RecordEvery: 8,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- streaming vs. accumulating trajectory recording ---

// benchTrajectorySpec is the n=100k instance used to pin the memory/alloc
// win of the streaming-observer path over trajectory accumulation: the
// asynchronous single-leader protocol with a fine recording resolution
// (one snapshot per 0.002 virtual time steps over a bounded horizon), the
// regime where Result.Trajectory costs O(steps) memory.
func benchTrajectorySpec() Spec {
	return Spec{
		N: 100_000, K: 8, Alpha: 1.5, Seed: 1,
		MaxTime: 4, RecordEvery: 0.002,
	}
}

// BenchmarkTrajectoryAccumulating runs the instance with the default
// accumulating Result.Trajectory.
func BenchmarkTrajectoryAccumulating(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := Run(context.Background(), "leader", benchTrajectorySpec())
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Trajectory) < 1000 {
			b.Fatalf("only %d trajectory points accumulated", len(res.Trajectory))
		}
	}
}

// BenchmarkTrajectoryStreaming runs the identical instance with
// DiscardTrajectory and a streaming Observer: the outcome is evaluated
// incrementally and recording memory stays O(1) regardless of resolution.
func BenchmarkTrajectoryStreaming(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		points := 0
		spec := benchTrajectorySpec()
		spec.DiscardTrajectory = true
		spec.Observer = ObserverFunc(func(TrajectoryPoint) { points++ })
		res, err := Run(context.Background(), "leader", spec)
		if err != nil {
			b.Fatal(err)
		}
		if points < 1000 || len(res.Trajectory) != 0 {
			b.Fatalf("streaming run recorded %d points, trajectory %d", points, len(res.Trajectory))
		}
	}
}

// BenchmarkRecorderAccumulating100k isolates the recording path itself:
// 100k snapshots through the accumulating recorder. Compare with the
// streaming variant below — the delta is exactly the O(steps) trajectory
// memory the Observer path avoids.
func BenchmarkRecorderAccumulating100k(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rec := metrics.NewRecorder(0.01, false, nil)
		for t := 0; t < 100_000; t++ {
			rec.Append(metrics.Point{Time: float64(t), TopFrac: 0.5, PluralityFrac: 0.5})
		}
		if len(rec.Trajectory()) != 100_000 {
			b.Fatal("trajectory not accumulated")
		}
	}
}

// BenchmarkRecorderStreaming100k drives the same 100k snapshots through a
// discarding recorder with a streaming sink: O(1) memory, near-zero allocs.
func BenchmarkRecorderStreaming100k(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		seen := 0
		rec := metrics.NewRecorder(0.01, true, func(metrics.Point) { seen++ })
		for t := 0; t < 100_000; t++ {
			rec.Append(metrics.Point{Time: float64(t), TopFrac: 0.5, PluralityFrac: 0.5})
		}
		if seen != 100_000 || rec.Trajectory() != nil {
			b.Fatal("streaming recorder misbehaved")
		}
	}
}

// --- typed event kernel + sharded batch layer (PR 3) ---

// benchKernelSpec is the n=100k single-leader instance used to track kernel
// throughput (events/sec) across PRs; BENCH_PR3.json records its history.
func benchKernelSpec() Spec {
	return Spec{N: 100_000, K: 4, Alpha: 2, Seed: 1, MaxTime: 4, DiscardTrajectory: true}
}

// BenchmarkKernelLeader100k runs the asynchronous single-leader protocol at
// n=100k over a fixed virtual-time window on the typed event kernel.
func BenchmarkKernelLeader100k(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := Run(context.Background(), "leader", benchKernelSpec())
		if err != nil {
			b.Fatal(err)
		}
		if res.Stats["events"] < 100_000 {
			b.Fatal("implausibly few events")
		}
	}
}

// BenchmarkRunBatchSerial and BenchmarkRunBatchParallel bracket the batch
// layer's sharding win: the same eight replications on one worker versus a
// GOMAXPROCS-wide pool. Their ns/op ratio is the parallel speedup.
func benchBatch(b *testing.B, workers int) {
	b.Helper()
	spec := Spec{N: 20_000, K: 4, Alpha: 2, Seed: 1, MaxTime: 4, DiscardTrajectory: true}
	for i := 0; i < b.N; i++ {
		if _, err := RunBatch(context.Background(), "leader", spec, 8, workers); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRunBatchSerial(b *testing.B)   { benchBatch(b, 1) }
func BenchmarkRunBatchParallel(b *testing.B) { benchBatch(b, 0) }
