package topo

import (
	"fmt"
	"math/bits"

	"plurality/internal/xrand"
)

// This file implements the batched sampling fast path. The contract every
// implementation obeys is the scalar-equivalence invariant:
//
//	SampleNeighbors(r, vs, out) consumes r's stream exactly as
//	len(vs) scalar SampleNeighbor(r, vs[i]) calls in index order, and
//	out[i] is the exact value call i would have returned.
//
// Batching is therefore purely a performance choice — a batched engine run
// is byte-identical to a scalar one, which is what keeps the golden kernel
// digests (TestKernelGolden) and snapshot roundtrips valid. The invariant
// is pinned for every built-in topology by TestSampleNeighborsEquivalence.
//
// The speed comes from three places: the per-sample virtual call is
// amortized over the whole slice, the raw draws flow through the
// xrand.Fill* bulk primitives (generator state stays in registers), and the
// per-kind transforms are branch-minimized (compare-and-adjust wraparound,
// magic-number division instead of hardware divide).
//
// The synchronous round kernels go one step further where the neighbour map
// is a formula (sync on the complete graph, the baselines' RunSync on the
// complete graph and on regular graphs): they take the raw bounded draws in
// one FillInt32n per chunk and map each draw to its neighbour inside their
// apply loop, through CompleteNeighbor and Rows.Neighbor — the same maps the
// SampleNeighbors methods below use. The stream is consumed draw for draw
// as by SampleNeighbors, so the invariant above still holds for them.

// BatchSampler is the optional bulk-sampling capability of a Sampler. All
// built-in topologies implement it; third-party Samplers keep working
// through the scalar fallback of Batch / SampleNeighbors.
type BatchSampler interface {
	Sampler
	// SampleNeighbors fills out[i] with a uniform neighbor of vs[i],
	// consuming randomness from r exactly as len(vs) scalar SampleNeighbor
	// calls in index order. vs and out must have equal length and must not
	// alias.
	SampleNeighbors(r *xrand.RNG, vs, out []int32)
}

// SampleNeighbors samples a neighbor for every element of vs into out,
// using s's bulk path when it has one and falling back to scalar calls
// otherwise. Engines on a hot loop should resolve the capability once with
// Batch instead of paying the type assertion per call.
func SampleNeighbors(s Sampler, r *xrand.RNG, vs, out []int32) {
	if bs, ok := s.(BatchSampler); ok {
		bs.SampleNeighbors(r, vs, out)
		return
	}
	scalarBatch{s}.SampleNeighbors(r, vs, out)
}

// Batch adapts any Sampler to the BatchSampler interface: samplers with a
// native bulk path are returned as-is, anything else is wrapped in a scalar
// fallback loop. Engines resolve this once at setup and call
// SampleNeighbors unconditionally on the hot path.
func Batch(s Sampler) BatchSampler {
	if bs, ok := s.(BatchSampler); ok {
		return bs
	}
	return scalarBatch{s}
}

// scalarBatch is the fallback BatchSampler over plain scalar calls — the
// definitional form of the scalar-equivalence invariant.
type scalarBatch struct {
	Sampler
}

func (sb scalarBatch) SampleNeighbors(r *xrand.RNG, vs, out []int32) {
	checkBatchArgs(len(vs), len(out))
	for i, v := range vs {
		out[i] = int32(sb.Sampler.SampleNeighbor(r, int(v)))
	}
}

// checkBatchArgs panics on mismatched batch slices — always a programming
// error in the calling engine.
func checkBatchArgs(nvs, nout int) {
	if nvs != nout {
		panic(fmt.Sprintf("topo: SampleNeighbors with len(vs)=%d != len(out)=%d", nvs, nout))
	}
}

// SampleNeighbors fills out with uniform non-self nodes: one bulk
// Intn(n-1) pass, then CompleteNeighbor on each draw.
func (c *Complete) SampleNeighbors(r *xrand.RNG, vs, out []int32) {
	checkBatchArgs(len(vs), len(out))
	r.FillInt32n(int32(c.n-1), out)
	for i, v := range vs {
		out[i] = CompleteNeighbor(v, out[i])
	}
}

// CompleteNeighbor maps a raw Intn(n-1) draw u to the complete graph's
// neighbour of v: u below v, u+1 from v on, computed without a branch.
// A self id no draw reaches, such as math.MaxInt32, maps every u to itself.
func CompleteNeighbor(v, u int32) int32 {
	return u + int32(uint32(v-u-1)>>31)
}

// SampleNeighbors fills out with uniform ring neighbors: one bulk
// Intn(2·width) pass, then closed-form offsets with compare-and-adjust
// wraparound (no division).
func (g *Ring) SampleNeighbors(r *xrand.RNG, vs, out []int32) {
	checkBatchArgs(len(vs), len(out))
	w, n := g.width, g.n
	r.FillInt32n(int32(2*w), out)
	for i, v := range vs {
		j := int(out[i])
		off := j + 1
		if j >= w {
			off = w - 1 - j
		}
		x := int(v) + off
		if x >= n {
			x -= n
		} else if x < 0 {
			x += n
		}
		out[i] = int32(x)
	}
}

// torusSteps maps a direction draw j ∈ [0,4) to its (row, col) offset; the
// table form keeps the batch transform branch-poor.
var torusDRow = [4]int32{1, -1, 0, 0}
var torusDCol = [4]int32{0, 0, 1, -1}

// SampleNeighbors fills out with uniform grid neighbors: one bulk Intn(4)
// pass, then table-driven offsets with compare-and-adjust wraparound. The
// row/column split uses the precomputed magic-number divider, so the
// transform performs no hardware division.
func (g *Torus) SampleNeighbors(r *xrand.RNG, vs, out []int32) {
	checkBatchArgs(len(vs), len(out))
	rows, cols := int32(g.rows), int32(g.cols)
	r.FillInt32n(4, out)
	for i, v := range vs {
		j := out[i]
		row := int32(g.colsDiv.div(uint32(v)))
		col := v - row*cols
		row += torusDRow[j]
		if row == rows {
			row = 0
		} else if row < 0 {
			row = rows - 1
		}
		col += torusDCol[j]
		if col == cols {
			col = 0
		} else if col < 0 {
			col = cols - 1
		}
		out[i] = row*cols + col
	}
}

// SampleNeighbors fills out with uniform CSR neighbors. Regular graphs
// (every built-in RandomRegular instance) take one bulk Intn(d) pass
// followed by a pure gather; mixed-degree graphs fall back to a per-row
// bounded draw, still amortizing the virtual call over the slice.
func (g *AdjGraph) SampleNeighbors(r *xrand.RNG, vs, out []int32) {
	checkBatchArgs(len(vs), len(out))
	if rows, d := g.Regular(); d > 0 {
		r.FillInt32n(d, out)
		for i, v := range vs {
			out[i] = rows.Neighbor(v, out[i])
		}
		return
	}
	for i, v := range vs {
		lo, hi := g.off[v], g.off[v+1]
		out[i] = g.adj[lo+int(r.Uint64n(uint64(hi-lo)))]
	}
}

// Rows is the neighbour table of a d-regular CSR graph: node v's
// neighbours are adj[v·d : (v+1)·d].
type Rows struct {
	adj []int32
	d   int32
}

// Regular returns g's neighbour rows and their common degree d when every
// node has the same degree (every RandomRegular graph), and d = 0 on
// mixed-degree graphs. Raw draws for Rows.Neighbor are Intn(d).
func (g *AdjGraph) Regular() (rows Rows, d int32) {
	return Rows{adj: g.adj, d: g.uniformDeg}, g.uniformDeg
}

// Neighbor maps a raw Intn(d) draw u to v's u-th neighbour.
func (rr Rows) Neighbor(v, u int32) int32 {
	return rr.adj[int(v)*int(rr.d)+int(u)]
}

// divMagic performs division by a fixed uint32 divisor via one 64×64→128
// multiply (Lemire's fastdiv construction), replacing the ~20-cycle
// hardware divide on the torus sampling paths.
type divMagic struct {
	m uint64 // ceil(2^64 / d)
}

// newDivMagic returns the magic constant for divisor d >= 2 (d = 1 would
// need a 65-bit constant; no caller divides by 1 — torus dimensions are
// >= 3).
func newDivMagic(d uint32) divMagic {
	if d < 2 {
		panic(fmt.Sprintf("topo: divMagic needs d >= 2, got %d", d))
	}
	return divMagic{m: ^uint64(0)/uint64(d) + 1}
}

// div returns a / d for any a < 2^32; callers derive the remainder as
// a - div(a)·d, which is cheaper than a second magic multiply.
func (dm divMagic) div(a uint32) uint32 {
	hi, _ := bits.Mul64(dm.m, uint64(a))
	return uint32(hi)
}

// Scratch is a reusable sampling workspace: the (vs, out) slice pair every
// batched engine hot loop feeds to SampleNeighbors. A nil *Scratch is not
// usable; engines default one per run, and the public batch layer threads
// one per worker through harness.ForEachWorkersScratch so replications
// executed by the same worker share buffers instead of reallocating them.
// Scratch is not safe for concurrent use — exactly like the RNGs it rides
// alongside, each worker owns its own.
type Scratch struct {
	vs, out []int32
}

// Buffers returns the two length-n batch slices, growing the backing
// arrays when needed. The contents are unspecified; callers overwrite vs
// and then fill out through SampleNeighbors. Subsequent calls reuse the
// same arrays, so at most one caller may hold the buffers at a time.
func (s *Scratch) Buffers(n int) (vs, out []int32) {
	if cap(s.vs) < n {
		s.vs = make([]int32, n)
		s.out = make([]int32, n)
	}
	return s.vs[:n], s.out[:n]
}

// Compile-time checks: every built-in topology implements the bulk path.
var (
	_ BatchSampler = (*Complete)(nil)
	_ BatchSampler = (*Ring)(nil)
	_ BatchSampler = (*Torus)(nil)
	_ BatchSampler = (*AdjGraph)(nil)
)
