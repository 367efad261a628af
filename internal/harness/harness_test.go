package harness

import (
	"context"
	"errors"
	"math"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"plurality/internal/stats"
)

func TestReplicateAggregates(t *testing.T) {
	agg, _ := ReplicateCtx(context.Background(), 100, func(_ context.Context, seed uint64) (Metrics, error) {
		return Metrics{"seed": float64(seed), "one": 1}, nil
	})
	if agg["seed"].N() != 100 {
		t.Fatalf("N = %d", agg["seed"].N())
	}
	if math.Abs(agg["seed"].Mean()-49.5) > 1e-9 {
		t.Errorf("mean of seeds %v, want 49.5", agg["seed"].Mean())
	}
	if agg["one"].Mean() != 1 || agg["one"].Std() != 0 {
		t.Error("constant metric aggregated wrong")
	}
}

func TestReplicateRunsAll(t *testing.T) {
	var count int64
	ReplicateCtx(context.Background(), 37, func(_ context.Context, seed uint64) (Metrics, error) {
		atomic.AddInt64(&count, 1)
		return Metrics{}, nil
	})
	if count != 37 {
		t.Fatalf("ran %d replications, want 37", count)
	}
}

func TestReplicateDeterministicSeeds(t *testing.T) {
	seen := make([]int64, 10)
	ReplicateCtx(context.Background(), 10, func(_ context.Context, seed uint64) (Metrics, error) {
		atomic.AddInt64(&seen[seed], 1)
		return Metrics{}, nil
	})
	for i, c := range seen {
		if c != 1 {
			t.Fatalf("seed %d ran %d times", i, c)
		}
	}
}

func TestReplicatePartialMetrics(t *testing.T) {
	// Metrics reported only by some replications must still aggregate.
	agg, _ := ReplicateCtx(context.Background(), 10, func(_ context.Context, seed uint64) (Metrics, error) {
		m := Metrics{"always": 1}
		if seed%2 == 0 {
			m["even"] = float64(seed)
		}
		return m, nil
	})
	if agg["always"].N() != 10 {
		t.Errorf("always.N = %d", agg["always"].N())
	}
	if agg["even"].N() != 5 {
		t.Errorf("even.N = %d", agg["even"].N())
	}
}

func TestTableRender(t *testing.T) {
	tb := NewTable("Demo", []string{"n"}, []string{"time"})
	s := &stats.Summary{}
	for _, x := range []float64{1, 2, 3} {
		s.Add(x)
	}
	tb.Append(map[string]float64{"n": 100}, map[string]*stats.Summary{"time": s})
	out := tb.Render()
	if !strings.Contains(out, "Demo") || !strings.Contains(out, "time") {
		t.Errorf("render missing headers:\n%s", out)
	}
	if !strings.Contains(out, "2 ±") {
		t.Errorf("render missing mean:\n%s", out)
	}
}

func TestTableAppendsUnknownMetrics(t *testing.T) {
	tb := NewTable("Demo", []string{"n"}, []string{"a"})
	s := &stats.Summary{}
	s.Add(5)
	tb.Append(map[string]float64{"n": 1},
		map[string]*stats.Summary{"a": s, "b": s})
	if len(tb.MetricOrder) != 2 {
		t.Fatalf("metric order %v", tb.MetricOrder)
	}
}

func TestTableCSV(t *testing.T) {
	tb := NewTable("Demo", []string{"n", "k"}, []string{"time"})
	s := &stats.Summary{}
	for _, x := range []float64{2, 4} {
		s.Add(x)
	}
	tb.Append(map[string]float64{"n": 100, "k": 2}, map[string]*stats.Summary{"time": s})
	csv := tb.CSV()
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	if len(lines) != 2 {
		t.Fatalf("CSV lines: %v", lines)
	}
	if lines[0] != "n,k,time_mean,time_se,time_n" {
		t.Errorf("CSV header %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "100,2,3,") {
		t.Errorf("CSV row %q", lines[1])
	}
}

func TestTableMissingCell(t *testing.T) {
	tb := NewTable("Demo", []string{"n"}, []string{"a", "b"})
	s := &stats.Summary{}
	s.Add(1)
	tb.Append(map[string]float64{"n": 1}, map[string]*stats.Summary{"a": s})
	if !strings.Contains(tb.Render(), "-") {
		t.Error("missing cell not rendered as dash")
	}
	if !strings.Contains(tb.CSV(), ",,,0") {
		t.Error("missing cell not rendered in CSV")
	}
}

func TestReplicateCtxAggregates(t *testing.T) {
	agg, err := ReplicateCtx(context.Background(), 8,
		func(_ context.Context, seed uint64) (Metrics, error) {
			return Metrics{"seed": float64(seed)}, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	s := agg["seed"]
	if s.N() != 8 || s.Mean() != 3.5 {
		t.Errorf("seed summary n=%d mean=%v", s.N(), s.Mean())
	}
}

func TestReplicateCtxPropagatesError(t *testing.T) {
	boom := errors.New("boom")
	_, err := ReplicateCtx(context.Background(), 4,
		func(_ context.Context, seed uint64) (Metrics, error) {
			if seed == 2 {
				return nil, boom
			}
			return Metrics{"x": 1}, nil
		})
	if err != boom {
		t.Errorf("err = %v, want boom", err)
	}
}

func TestReplicateCtxErrorCancelsBatch(t *testing.T) {
	boom := errors.New("boom")
	var started atomic.Int64
	_, err := ReplicateCtx(context.Background(), 1000,
		func(ctx context.Context, seed uint64) (Metrics, error) {
			started.Add(1)
			if seed == 0 {
				return nil, boom
			}
			// Replications that honour ctx abort once the batch failed.
			select {
			case <-ctx.Done():
				return nil, ctx.Err()
			case <-time.After(10 * time.Millisecond):
				return Metrics{"x": 1}, nil
			}
		})
	if err != boom {
		t.Fatalf("err = %v, want boom", err)
	}
	if n := started.Load(); n >= 1000 {
		t.Errorf("all %d replications ran despite the early error", n)
	}
}

func TestReplicateCtxCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := ReplicateCtx(ctx, 1000,
		func(_ context.Context, seed uint64) (Metrics, error) {
			return Metrics{"x": 1}, nil
		})
	if err != context.Canceled {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}
