// Package topo abstracts the interaction graph of the consensus protocols.
//
// The paper analyzes every protocol on the complete graph: a node contacting
// a "random other node" draws uniformly from the whole population. That
// assumption used to be copy-pasted into each engine as a local sampleOther
// helper; this package replaces those copies with one Sampler interface so
// the same dynamics run on restricted topologies — rings, tori, random
// regular graphs, Erdős–Rényi graphs — the regimes studied by the related
// general-graph literature (3-majority on expanders, two-choices k-party
// voting).
//
// Complete is the default and the fast path: it keeps O(1) memory, performs
// zero per-sample allocations (asserted by CI's bench-smoke job), and
// consumes randomness exactly like the old sampleOther helpers — one
// Intn(n-1) draw per sample, shifted past v — so runs on the zero-value
// topology are byte-identical to the pre-topology code for the same seed. The sparse
// topologies carry an explicit CSR adjacency (or a closed-form
// neighborhood) and sample a uniform neighbor in O(1) as well.
//
// # Invariants
//
// Samplers are immutable after construction and safe for concurrent
// readers, which is what lets parallel replications (and warm-started
// resumes) share one graph value. Construction of the random kinds is a
// pure function of (n, parameters, seed): the same inputs rebuild the
// identical graph, so checkpoint blobs never serialize a sampler — a
// restored run reconstructs it from the spec. Randomness always flows from
// the caller's RNG into SampleNeighbor, never from sampler-owned state, so
// the RNG stream position — part of the checkpoint state — fully determines
// future samples.
package topo

import (
	"fmt"

	"plurality/internal/xrand"
)

// Sampler is one interaction graph. Implementations must be safe for
// concurrent readers (all methods are pure reads; randomness comes from the
// caller's RNG), which is what lets parallel replications share one graph.
type Sampler interface {
	// SampleNeighbor returns a uniformly random neighbor of v, drawing
	// randomness from r. v must lie in [0, Size()); every node of a valid
	// Sampler has at least one neighbor.
	SampleNeighbor(r *xrand.RNG, v int) int
	// Degree returns the number of neighbors of v (diagnostics).
	Degree(v int) int
	// Size returns the number of nodes.
	Size() int
}

// OrComplete defaults a nil sampler to the complete graph on n nodes — the
// convention every engine config follows — and rejects a sampler whose size
// differs from n.
func OrComplete(tp Sampler, n int) (Sampler, error) {
	if tp == nil {
		return NewComplete(n), nil
	}
	if tp.Size() != n {
		return nil, fmt.Errorf("topo: sampler size %d != n %d", tp.Size(), n)
	}
	return tp, nil
}

// Complete is the complete graph on n nodes — the paper's model and the
// zero-allocation fast path. Its sampling is bit-compatible with the
// historical per-engine sampleOther helpers: one Intn(n-1) draw, shifted
// past v.
type Complete struct {
	n int
}

// NewComplete returns the complete graph on n >= 2 nodes. It panics on a
// smaller n because every engine validates N >= 2 first, making a violation
// a programming error.
func NewComplete(n int) *Complete {
	if n < 2 {
		panic(fmt.Sprintf("topo: complete graph needs n >= 2, got %d", n))
	}
	return &Complete{n: n}
}

// SampleNeighbor returns a uniform node other than v.
func (c *Complete) SampleNeighbor(r *xrand.RNG, v int) int {
	u := r.Intn(c.n - 1)
	if u >= v {
		u++
	}
	return u
}

// Degree returns n-1 for every node.
func (c *Complete) Degree(int) int { return c.n - 1 }

// Size returns the node count.
func (c *Complete) Size() int { return c.n }

// String names the graph for diagnostics.
func (c *Complete) String() string { return fmt.Sprintf("complete(n=%d)", c.n) }

// Ring is the circulant graph on n nodes where v neighbors v±1, …, v±width
// (mod n): width 1 is the plain cycle, larger widths are the standard
// "fat ring" interpolation towards the clique.
type Ring struct {
	n, width int
}

// NewRing returns the ring on n nodes with half-width width >= 1. The 2·width
// neighbor offsets must be distinct modulo n, which requires n >= 2·width+1.
func NewRing(n, width int) (*Ring, error) {
	if width < 1 {
		return nil, fmt.Errorf("topo: ring width %d < 1", width)
	}
	if n < 2*width+1 {
		return nil, fmt.Errorf("topo: ring needs n >= 2*width+1 = %d, got n = %d", 2*width+1, n)
	}
	return &Ring{n: n, width: width}, nil
}

// SampleNeighbor returns a uniform element of {v±1, …, v±width} mod n. The
// wraparound is compare-and-adjust, not %: |off| <= width < n, so one
// conditional correction replaces the integer division.
func (g *Ring) SampleNeighbor(r *xrand.RNG, v int) int {
	j := r.Intn(2 * g.width)
	var off int
	if j < g.width {
		off = j + 1
	} else {
		off = g.width - 1 - j // -(j - width + 1)
	}
	x := v + off
	if x >= g.n {
		x -= g.n
	} else if x < 0 {
		x += g.n
	}
	return x
}

// Degree returns 2·width for every node.
func (g *Ring) Degree(int) int { return 2 * g.width }

// Size returns the node count.
func (g *Ring) Size() int { return g.n }

// String names the graph for diagnostics.
func (g *Ring) String() string { return fmt.Sprintf("ring(n=%d,width=%d)", g.n, g.width) }

// Torus is the rows×cols 2-D grid with wraparound: node (i, j) neighbors
// (i±1, j) and (i, j±1), all modulo the grid dimensions. Node v maps to
// row v/cols, column v%cols.
type Torus struct {
	rows, cols int
	colsDiv    divMagic // magic-number divider by cols for the row/col split
}

// NewTorus returns the rows×cols torus. Both dimensions must be >= 3 so the
// four directional neighbors are distinct (a 2-wide torus folds up and down
// onto the same node, silently biasing the sample).
func NewTorus(rows, cols int) (*Torus, error) {
	if rows < 3 || cols < 3 {
		return nil, fmt.Errorf("topo: torus needs rows, cols >= 3, got %dx%d", rows, cols)
	}
	return &Torus{rows: rows, cols: cols, colsDiv: newDivMagic(uint32(cols))}, nil
}

// SampleNeighbor returns a uniform one of v's four grid neighbors. The
// row/column split goes through the precomputed magic-number divider and the
// wraparounds are compare-and-adjust, so the sample performs no hardware
// division.
func (g *Torus) SampleNeighbor(r *xrand.RNG, v int) int {
	row := int(g.colsDiv.div(uint32(v)))
	col := v - row*g.cols
	switch r.Intn(4) {
	case 0:
		row++
		if row == g.rows {
			row = 0
		}
	case 1:
		if row == 0 {
			row = g.rows
		}
		row--
	case 2:
		col++
		if col == g.cols {
			col = 0
		}
	default:
		if col == 0 {
			col = g.cols
		}
		col--
	}
	return row*g.cols + col
}

// Degree returns 4 for every node.
func (g *Torus) Degree(int) int { return 4 }

// Size returns rows·cols.
func (g *Torus) Size() int { return g.rows * g.cols }

// String names the graph for diagnostics.
func (g *Torus) String() string { return fmt.Sprintf("torus(%dx%d)", g.rows, g.cols) }

// NearSquareDims factors n into rows×cols with both factors >= 3 and the
// pair as close to square as possible — the default torus shape for a given
// node count. ok is false when no such factorization exists (n < 9, primes,
// 2·prime, …).
func NearSquareDims(n int) (rows, cols int, ok bool) {
	if n < 9 {
		return 0, 0, false
	}
	for d := isqrt(n); d >= 3; d-- {
		if n%d == 0 && n/d >= 3 {
			return d, n / d, true
		}
	}
	return 0, 0, false
}

// isqrt returns ⌊√n⌋.
func isqrt(n int) int {
	if n < 0 {
		return 0
	}
	x := n
	y := (x + 1) / 2
	for y < x {
		x = y
		y = (x + n/x) / 2
	}
	return x
}

// AvgDegree returns the mean degree of g — the headline diagnostic the
// public layer surfaces in Result.Stats for non-complete topologies.
func AvgDegree(g Sampler) float64 {
	n := g.Size()
	if n == 0 {
		return 0
	}
	total := 0
	for v := 0; v < n; v++ {
		total += g.Degree(v)
	}
	return float64(total) / float64(n)
}
