package syncgen

import (
	"math"

	"plurality/internal/adversary"
	"plurality/internal/opinion"
	"plurality/internal/topo"
	"plurality/internal/xrand"
)

// stepChunk is the number of nodes whose partner pairs are batch-drawn at
// a time: 2·stepChunk draws per SampleNeighbors call, sized so the vs
// scratch stays cache-resident while the per-call dispatch cost is fully
// amortized. Chunking affects only how the draws are grouped, never the
// stream: by the scalar-equivalence invariant the drawn partners are
// byte-identical for any chunk size.
const stepChunk = 2048

// blockTarget is the cache-block size of the step's apply stage: 8192
// packed words are 32 KiB of node state, so one block plus its partner
// halo stays L1/L2-resident while its gathers execute.
const blockTarget = 8192

// The packed node state: one uint32 word per node, generation in the high
// byte and color in the low 24 bits. A partner gather then touches one
// word instead of two parallel slices, which matters because the step loop
// is bound by exactly those gathers. The layout bounds the engine to
// maxPackedOpinions colors and maxPackedGen generations, both validated by
// Run (the public layer mirrors the color bound as plurality.MaxOpinions).
const (
	genShift          = 24
	colMask           = 1<<genShift - 1
	genUnit           = 1 << genShift // one-generation increment of a word
	maxPackedOpinions = 1 << genShift
	maxPackedGen      = math.MaxUint32 >> genShift
)

// state holds the full synchronous configuration in packed form plus the
// incremental tallies, so per-step bookkeeping stays O(n) and generation
// statistics are O(1) to read.
type state struct {
	n, k     int
	gCap     int      // highest representable generation (G*)
	packed   []uint32 // current configuration, one word per node
	next     []uint32 // scratch for the synchronous update
	partners []int32  // staged partner draws: nodes 2v, 2v+1 (id order); nil until drawPartners
	order    []int32  // cache-blocked traversal order; nil = identity
	blockOff []int32  // block boundaries (into order, or node-id ranges)
	// Per-block change buffers: the apply loop stages (old, new) word pairs
	// of the nodes it changed and the tally folds them at the block
	// boundary, keeping tally branches out of the gather loop.
	deltaOld []uint32
	deltaNew []uint32
	tally    *tally
	scratch  *topo.Scratch // batch-sampling buffers (per-worker under RunBatch)

	// Adversary support (nil/empty for honest runs; see adversary.go).
	adv   *adversary.State
	crash adversary.Crashes
}

// newState packs the initial assignment (generation 0 throughout) and
// prepares the blocked traversal for the run's topology. tp may be nil in
// unit tests, which keeps the identity order.
func newState(cols []opinion.Opinion, k, gStar int, tp topo.Sampler, scratch *topo.Scratch) *state {
	n := len(cols)
	if scratch == nil {
		scratch = &topo.Scratch{}
	}
	st := &state{
		n:       n,
		k:       k,
		gCap:    gStar,
		packed:  make([]uint32, n),
		next:    make([]uint32, n),
		tally:   newTally(k, gStar),
		scratch: scratch,
	}
	for v, c := range cols {
		st.packed[v] = uint32(c)
	}
	if err := st.tally.rebuild(st.packed); err != nil {
		// The caller validated the assignment; a bad word here is a bug.
		panic(err)
	}
	if tp != nil {
		st.order, st.blockOff = topo.BlockOrder(tp, blockTarget)
	} else {
		st.blockOff = []int32{0}
		for v := blockTarget; v < n; v += blockTarget {
			st.blockOff = append(st.blockOff, int32(v))
		}
		st.blockOff = append(st.blockOff, int32(n))
	}
	maxBlock := 0
	for b := 1; b < len(st.blockOff); b++ {
		if size := int(st.blockOff[b] - st.blockOff[b-1]); size > maxBlock {
			maxBlock = size
		}
	}
	st.deltaOld = make([]uint32, maxBlock)
	st.deltaNew = make([]uint32, maxBlock)
	return st
}

// colOf returns node v's current color.
func (st *state) colOf(v int) opinion.Opinion {
	return opinion.Opinion(st.packed[v] & colMask)
}

// drawPartners stages the two partner draws of every node into
// st.partners, in node-id order — node 0's pair, then node 1's, … — which
// consumes the RNG stream exactly as the historical per-node scalar draws,
// so golden digests are unaffected. The apply stage is then free to walk
// the nodes in any order it likes. The array is allocated on the first
// call: the fused step never stages its draws.
func (st *state) drawPartners(r *xrand.RNG, tp topo.BatchSampler) {
	n := st.n
	if st.partners == nil {
		st.partners = make([]int32, 2*n)
	}
	for base := 0; base < n; base += stepChunk {
		m := stepChunk
		if base+m > n {
			m = n - base
		}
		vs, _ := st.scratch.Buffers(2 * m)
		for i := 0; i < m; i++ {
			v := int32(base + i)
			vs[2*i] = v
			vs[2*i+1] = v
		}
		tp.SampleNeighbors(r, vs, st.partners[2*base:2*(base+m)])
	}
}

// step executes one synchronous round of Algorithm 1 as a staged pipeline:
// partner pairs are batch-drawn in node-id order, then the two-choices /
// propagation rules are applied against the *previous* configuration,
// folding per-generation tally deltas at block boundaries. Topologies whose
// locality order is the identity (complete, ring, small grids) take the
// fused path, where the draw and apply stages interleave chunk by chunk and
// the partner indices never leave the L1-resident scratch buffer; permuted
// orders stage all draws first and then walk the blocked order. Either way
// the RNG stream is consumed in node-id order (the scalar-equivalence
// invariant makes the chunking invisible), updates read only the previous
// words, and the tally deltas commute — so both paths produce byte-identical
// results and differ purely in memory traffic.
func (st *state) step(r *xrand.RNG, tp topo.BatchSampler, twoChoices bool) {
	if st.order == nil {
		st.stepFused(r, tp, twoChoices)
		return
	}
	st.drawPartners(r, tp)
	packed, next, partners := st.packed, st.next, st.partners
	deltaOld, deltaNew := st.deltaOld, st.deltaNew
	gCap := uint32(st.gCap)
	for b := 1; b < len(st.blockOff); b++ {
		lo, hi := int(st.blockOff[b-1]), int(st.blockOff[b])
		nd := 0
		for _, v32 := range st.order[lo:hi] {
			v := int(v32)
			w := packed[v]
			wa := packed[partners[2*v]]
			wb := packed[partners[2*v+1]]
			// wlog gen(a) >= gen(b) (Algorithm 1 line 2).
			if wa>>genShift < wb>>genShift {
				wa, wb = wb, wa
			}
			nw := w
			if twoChoices && wa == wb &&
				w>>genShift <= wa>>genShift && wa>>genShift < gCap {
				// Two-choices promotion (line 3-5): equal partner
				// words mean equal generations and equal colors.
				nw = wa + genUnit
			} else if wa>>genShift > w>>genShift {
				// Propagation (line 6-8).
				nw = wa
			}
			next[v] = nw
			if nw != w {
				deltaOld[nd] = w
				deltaNew[nd] = nw
				nd++
			}
		}
		st.foldDeltas(nd)
	}
	st.tally.collapse()
	st.packed, st.next = st.next, st.packed
}

// foldDeltas folds one block's staged (old, new) word pairs into the tally.
// Node generations are monotone under both rules, so maxGen only moves up
// and the deltas replace the historical full zero-and-recount pass. Both
// modes stage two indexed adds per changed node — into the dense diff
// matrix, or into per-generation scratch rows — and collapse() folds the
// staged deltas into the aggregates once per step, keeping sorted-row
// searches (sparse) and bookkeeping branches (dense) off the per-node path.
func (st *state) foldDeltas(nd int) {
	deltaOld, deltaNew := st.deltaOld, st.deltaNew
	t := st.tally
	if diff := t.diff; diff != nil {
		k := st.k
		for i := 0; i < nd; i++ {
			o, nw := deltaOld[i], deltaNew[i]
			diff[int(o>>genShift)*k+int(o&colMask)]--
			diff[int(nw>>genShift)*k+int(nw&colMask)]++
		}
		return
	}
	for i := 0; i < nd; i++ {
		o, nw := deltaOld[i], deltaNew[i]
		t.rowDiffFor(int(o >> genShift))[o&colMask]--
		t.rowDiffFor(int(nw >> genShift))[nw&colMask]++
	}
}

// stepFused is the identity-order variant of step: each stepChunk-sized
// chunk of nodes has its partner pair drawn and applied before the next
// chunk draws, so the partner indices live entirely in the scratch buffer
// (16 KiB) instead of round-tripping through the full 2n-element partners
// array. The draw stream is still node-id order — chunk c draws nodes
// [c·stepChunk, (c+1)·stepChunk) in order — so it is byte-identical to the
// staged path.
func (st *state) stepFused(r *xrand.RNG, tp topo.BatchSampler, twoChoices bool) {
	n := st.n
	packed, next := st.packed, st.next
	deltaOld, deltaNew := st.deltaOld, st.deltaNew
	gCap := uint32(st.gCap)
	for base := 0; base < n; base += stepChunk {
		m := stepChunk
		if base+m > n {
			m = n - base
		}
		vs, out := st.scratch.Buffers(2 * m)
		for i := 0; i < m; i++ {
			v := int32(base + i)
			vs[2*i] = v
			vs[2*i+1] = v
		}
		tp.SampleNeighbors(r, vs, out)
		// The inner kernels are written branch-poor on purpose: the swap,
		// the rule selection and the delta staging all compile to
		// conditional moves, because a data-dependent mispredict here
		// flushes the in-flight partner gathers that dominate the step.
		// Staging a delta pair is therefore unconditional (two L1 stores)
		// and only the cursor advance depends on whether the word changed.
		nd := 0
		if twoChoices {
			for i := 0; i < m; i++ {
				v := base + i
				w := packed[v]
				wa := packed[out[2*i]]
				wb := packed[out[2*i+1]]
				// wlog gen(a) >= gen(b) (Algorithm 1 line 2).
				if wa>>genShift < wb>>genShift {
					wa, wb = wb, wa
				}
				nw := w
				if wa>>genShift > w>>genShift {
					// Propagation (line 6-8).
					nw = wa
				}
				if wa == wb && w>>genShift <= wa>>genShift && wa>>genShift < gCap {
					// Two-choices promotion (line 3-5) wins over
					// propagation, as in the if/else original: equal
					// partner words mean equal generations and colors.
					nw = wa + genUnit
				}
				next[v] = nw
				deltaOld[nd] = w
				deltaNew[nd] = nw
				if nw != w {
					nd++
				}
			}
		} else {
			for i := 0; i < m; i++ {
				v := base + i
				w := packed[v]
				wa := packed[out[2*i]]
				wb := packed[out[2*i+1]]
				if wa>>genShift < wb>>genShift {
					wa = wb
				}
				nw := w
				if wa>>genShift > w>>genShift {
					nw = wa
				}
				next[v] = nw
				deltaOld[nd] = w
				deltaNew[nd] = nw
				if nw != w {
					nd++
				}
			}
		}
		st.foldDeltas(nd)
	}
	st.tally.collapse()
	st.packed, st.next = st.next, st.packed
}

// genBias returns the color bias inside generation g (1 when empty).
func (st *state) genBias(g int) float64 {
	return st.tally.rowBias(g)
}

// monochromatic reports whether all nodes share one color.
func (st *state) monochromatic() bool {
	return st.tally.monochromatic()
}

// noteGenerations appends GenEvents for newly born generations and fills in
// establishment records once a generation reaches the γ threshold.
func (st *state) noteGenerations(step int, gamma float64, res *Result) {
	for g := 1; g <= st.gCap; g++ {
		size := st.tally.genSize[g]
		if size == 0 {
			continue
		}
		idx := -1
		for i := range res.Generations {
			if res.Generations[i].Gen == g {
				idx = i
				break
			}
		}
		if idx == -1 {
			res.Generations = append(res.Generations, GenEvent{
				Gen:             g,
				BirthStep:       step,
				BirthFrac:       float64(size) / float64(st.n),
				BirthBias:       st.genBias(g),
				EstablishedStep: -1,
			})
			idx = len(res.Generations) - 1
		}
		ev := &res.Generations[idx]
		if ev.EstablishedStep == -1 && float64(size) >= gamma*float64(st.n) {
			ev.EstablishedStep = step
			ev.EstablishedBias = st.genBias(g)
		}
	}
}

func log2f(x float64) float64 { return math.Log2(x) }
