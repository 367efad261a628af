package plurality

import (
	"context"
	"runtime"
	"testing"
)

// TestMillionNodeAsyncRun drives the asynchronous single-leader protocol at
// n = 10⁶ — the scale where the paper's O(log² n) bounds separate from the
// O(n log n) baselines — over a bounded virtual-time window. The typed
// event kernel makes this a seconds-scale test; it is skipped under -short
// so the CI race build stays fast while plain `go test ./...` still
// exercises the full path.
func TestMillionNodeAsyncRun(t *testing.T) {
	if testing.Short() {
		t.Skip("million-node run skipped in -short mode")
	}
	spec := Spec{
		N: 1_000_000, K: 4, Alpha: 2, Seed: 1,
		MaxTime: 2, DiscardTrajectory: true,
	}
	res, err := Run(context.Background(), "leader", spec)
	if err != nil {
		t.Fatal(err)
	}
	events := res.Stats["events"]
	// Two virtual time units of rate-1 clocks over 10⁶ nodes must produce
	// at least 2·10⁶ tick events (plus completes and signals).
	if events < 2_000_000 {
		t.Fatalf("n=10⁶ run processed only %.0f events", events)
	}
	total := 0
	for _, c := range res.FinalCounts {
		total += c
	}
	if total != spec.N {
		t.Fatalf("final counts sum to %d, want %d", total, spec.N)
	}
}

// TestRunBatchWorkerInvariance pins the batch layer's determinism contract:
// the result slice is bit-identical for every worker count — sequential,
// bounded, and GOMAXPROCS-wide — because each replication owns a seeded
// RNG stream and writes an index-addressed slot. Run with -race in CI, it
// also exercises the pool for data races.
func TestRunBatchWorkerInvariance(t *testing.T) {
	spec := Spec{N: 400, K: 3, Alpha: 2, Seed: 42}
	const reps = 6
	baseline, err := RunBatch(context.Background(), "leader", spec, reps, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 0} {
		got, err := RunBatch(context.Background(), "leader", spec, reps, workers)
		if err != nil {
			t.Fatal(err)
		}
		for i := range got {
			if digestResult(got[i]) != digestResult(baseline[i]) {
				t.Fatalf("workers=%d: replication %d diverged from the sequential run", workers, i)
			}
		}
	}
}

// TestRunBatchMatchesSoloRuns checks that replication i of a sharded batch
// is the same run as a standalone Run with seed+i.
func TestRunBatchMatchesSoloRuns(t *testing.T) {
	spec := Spec{N: 300, K: 2, Alpha: 2.5, Seed: 9}
	const reps = 4
	batch, err := RunBatch(context.Background(), "decentralized", spec, reps, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < reps; i++ {
		s := spec
		s.Seed = spec.Seed + uint64(i)
		solo, err := Run(context.Background(), "decentralized", s)
		if err != nil {
			t.Fatal(err)
		}
		if digestResult(batch[i]) != digestResult(solo) {
			t.Fatalf("batch replication %d differs from solo run with seed %d", i, s.Seed)
		}
	}
}

// TestSweepWorkerInvariance checks that the flattened sweep aggregates the
// same tables regardless of pool width.
func TestSweepWorkerInvariance(t *testing.T) {
	cfg := SweepConfig{
		Protocol: "sync",
		Base:     Spec{Seed: 3, Alpha: 2},
		Ns:       []int{200, 400},
		Ks:       []int{2, 4},
		Reps:     3,
	}
	cfg.Workers = 1
	seq, err := Sweep(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = runtime.GOMAXPROCS(0)
	par, err := Sweep(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if seq.CSV() != par.CSV() {
		t.Fatalf("sweep output depends on worker count:\nseq:\n%s\npar:\n%s", seq.CSV(), par.CSV())
	}
}

// TestBenchReport smoke-tests the public throughput-report API.
func TestBenchReport(t *testing.T) {
	rep, err := Bench(context.Background(), "leader", Spec{
		N: 2000, K: 2, Alpha: 2, Seed: 1, MaxTime: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Events == 0 || rep.EventsPerSec <= 0 || rep.WallSeconds <= 0 {
		t.Fatalf("implausible bench report: %+v", rep)
	}
	if rep.JSON() == "" {
		t.Fatal("empty JSON rendering")
	}
	batch, err := BenchBatch(context.Background(), "leader", Spec{
		N: 1000, K: 2, Alpha: 2, Seed: 1, MaxTime: 1,
	}, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if batch.Reps != 4 || batch.Workers != 2 || batch.Events <= rep.Events/4 {
		t.Fatalf("implausible batch report: %+v", batch)
	}
}

// TestMaxNodesValidation pins the lifted N bound: anything up to MaxNodes
// validates, anything beyond errors before a run starts.
func TestMaxNodesValidation(t *testing.T) {
	s := Spec{N: MaxNodes + 1, K: 2}
	if err := s.validate(); err == nil {
		t.Fatal("N beyond MaxNodes validated")
	}
	// MaxNodes itself passes validation (the complete-graph sampler is
	// O(1) in n, so this does not allocate node state).
	s = Spec{N: MaxNodes, K: 2}
	if err := s.validate(); err != nil {
		t.Fatalf("N = MaxNodes rejected: %v", err)
	}
}
