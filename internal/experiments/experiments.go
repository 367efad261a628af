// Package experiments implements the reproduction experiments E1–E16 that
// All lists: both figures of the paper and every measurable claim
// (theorems, propositions, the γ remark), each as a function returning a
// rendered table. cmd/experiments exposes them as subcommands; the root
// bench_test.go wires them to `go test -bench`.
//
// Sizes are laptop-scale by design: the paper proves asymptotic statements,
// and the experiments check shapes (who wins, what grows, what stays flat),
// not the authors' constants. The Opts.Quick flag shrinks grids for use in
// benchmarks and smoke tests.
package experiments

import (
	"context"
	"math"

	"plurality/internal/harness"
	"plurality/internal/stats"
)

// Opts tunes experiment size.
type Opts struct {
	// Reps is the number of seeded replications per grid point (default 5).
	Reps int
	// Quick shrinks the grids for benchmark/smoke use.
	Quick bool
	// Seed offsets all replication seeds, so independent invocations can
	// draw fresh randomness.
	Seed uint64
	// Ctx cancels a running experiment: once it is done, no further
	// replication starts and the aggregates cover only the completed
	// ones. nil means never cancelled.
	Ctx context.Context
}

// replicate runs fn through the harness pool, honouring o.Ctx. On
// cancellation the partially filled aggregates are returned so a table can
// still be rendered for the replications that completed.
func (o Opts) replicate(reps int, fn func(rep uint64) harness.Metrics) map[string]*stats.Summary {
	agg, _ := harness.ReplicateCtx(o.Ctx, reps,
		func(_ context.Context, rep uint64) (harness.Metrics, error) {
			return fn(rep), nil
		})
	return agg
}

func (o Opts) normalize() Opts {
	if o.Reps <= 0 {
		o.Reps = 5
	}
	return o
}

// boolMetric converts a success flag into a 0/1 measurement.
func boolMetric(ok bool) float64 {
	if ok {
		return 1
	}
	return 0
}

// mergeSeed mixes the per-experiment seed offset into a replication index.
func mergeSeed(base uint64, rep uint64) uint64 {
	x := base*0x9e3779b97f4a7c15 + rep + 1
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	return x
}

// summaries is shorthand for one-value cells in hand-built tables.
func singleCell(v float64) *stats.Summary {
	s := &stats.Summary{}
	s.Add(v)
	return s
}

// logRange returns count log-spaced values from lo to hi inclusive.
func logRange(lo, hi float64, count int) []float64 {
	if count < 2 {
		return []float64{lo}
	}
	out := make([]float64, count)
	ratio := math.Pow(hi/lo, 1/float64(count-1))
	v := lo
	for i := range out {
		out[i] = v
		v *= ratio
	}
	out[count-1] = hi
	return out
}

// fitLine renders a fit as a trailing annotation line for a table.
func fitLine(name string, f stats.Fit) string {
	return "  fit " + name + ": " + f.String() + "\n"
}
