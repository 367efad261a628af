package syncgen

import (
	"math"

	"plurality/internal/adversary"
	"plurality/internal/opinion"
	"plurality/internal/topo"
	"plurality/internal/xrand"
)

// stepChunk is the number of nodes step draws partners for and then updates
// at a time: 2·stepChunk draws per chunk, sized so the partner scratch
// (16 KiB) and the chunk's delta buffers stay cache-resident while the
// per-chunk dispatch cost is fully amortized. Chunking affects only how the
// draws are grouped, never the stream: by the scalar-equivalence invariant
// the drawn partners are byte-identical for any chunk size.
const stepChunk = 2048

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
	n, k   int
	gCap   int      // highest representable generation (G*)
	packed []uint32 // current configuration, one word per node
	next   []uint32 // scratch for the synchronous update
	// Per-chunk change buffers: the apply loop stages (old, new) word pairs
	// of the nodes it changed and the tally folds them at the chunk
	// boundary, keeping tally branches out of the gather loop.
	deltaOld []uint32
	deltaNew []uint32
	tally    *tally
	scratch  *topo.Scratch // batch-sampling buffers (per-worker under RunBatch)

	// Adversary support (see adversary.go): adv is nil and every node up
	// in an honest run. frozen counts the crashed nodes' colours and
	// frozenGen their generations, which the tally still holds but the
	// survivors do not, and surv is counts' scratch; all three are nil in
	// honest runs.
	adv          *adversary.State
	crash        adversary.Crashes
	frozen, surv opinion.Counts
	frozenGen    []int
}

// newState packs the initial assignment (generation 0 throughout).
func newState(cols []opinion.Opinion, k, gStar int, scratch *topo.Scratch) *state {
	n := len(cols)
	if scratch == nil {
		scratch = &topo.Scratch{}
	}
	st := &state{
		n:        n,
		k:        k,
		gCap:     gStar,
		packed:   make([]uint32, n),
		next:     make([]uint32, n),
		deltaOld: make([]uint32, stepChunk),
		deltaNew: make([]uint32, stepChunk),
		tally:    newTally(k, gStar),
		scratch:  scratch,
	}
	for v, c := range cols {
		st.packed[v] = uint32(c)
	}
	if err := st.tally.rebuild(st.packed); err != nil {
		// The caller validated the assignment; a bad word here is a bug.
		panic(err)
	}
	return st
}

// colOf returns node v's current color.
func (st *state) colOf(v int) opinion.Opinion {
	return opinion.Opinion(st.packed[v] & colMask)
}

// counts returns the survivors' colour counts: the tally's totals, less
// the crashed nodes' frozen colours in an adversarial run. The slice is
// live state, not a copy.
func (st *state) counts() opinion.Counts {
	if st.frozen == nil {
		return st.tally.counts()
	}
	for c, t := range st.tally.counts() {
		st.surv[c] = t - st.frozen[c]
	}
	return st.surv
}

// noteCrash moves a crashed (down) or recovered node's colour and
// generation into or out of the frozen counts.
func (st *state) noteCrash(v int, down bool) {
	g := st.packed[v] >> genShift
	if down {
		st.frozen[st.colOf(v)]++
		st.frozenGen[g]++
	} else {
		st.frozen[st.colOf(v)]--
		st.frozenGen[g]--
	}
}

// topGenSize returns the number of survivors in the highest generation
// present.
func (st *state) topGenSize() int {
	g := st.tally.maxGen
	if st.frozenGen == nil {
		return st.tally.genSize[g]
	}
	return st.tally.genSize[g] - st.frozenGen[g]
}

// foldDeltas folds one chunk's staged (old, new) word pairs into the tally.
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

// step executes one synchronous round of Algorithm 1, stepChunk nodes at a
// time: each chunk has its partner pairs drawn and then applied before the
// next chunk draws, so the partner indices never leave the scratch buffer.
// The draw stream is node-id order — chunk c draws nodes
// [c·stepChunk, (c+1)·stepChunk) in order — so by the scalar-equivalence
// invariant it is the stream of per-node scalar draws. On the complete
// graph the chunk holds raw Intn(n-1) draws, which the apply loop maps past
// the node itself; other graphs fill it with neighbours through
// SampleNeighbors, and noSelf turns that map into the identity. The rules
// read only the previous words; each chunk's tally deltas fold at its end
// and collapse folds the step's into the aggregates once. In an
// adversarial run adversarialChunk draws and applies each chunk instead.
// That check sits once per chunk and ahead of the honest draw: placed
// after it, the call changes the honest kernels' register allocation and
// adds stack reloads to their per-node loops.
func (st *state) step(r *xrand.RNG, tp topo.BatchSampler, twoChoices bool) {
	n := st.n
	packed, next := st.packed, st.next
	deltaOld, deltaNew := st.deltaOld, st.deltaNew
	gCap := uint32(st.gCap)
	_, complete := tp.(*topo.Complete)
	noSelf := int32(math.MaxInt32)
	if complete {
		noSelf = 0
	}
	for base := 0; base < n; base += stepChunk {
		m := stepChunk
		if base+m > n {
			m = n - base
		}
		if st.adv != nil {
			st.adversarialChunk(r, tp, complete, base, m, twoChoices)
			continue
		}
		vs, out := st.scratch.Buffers(2 * m)
		if complete {
			r.FillInt32n(int32(n-1), out)
		} else {
			for i := 0; i < m; i++ {
				v := int32(base + i)
				vs[2*i] = v
				vs[2*i+1] = v
			}
			tp.SampleNeighbors(r, vs, out)
		}
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
				self := int32(v) | noSelf
				w := packed[v]
				wa := packed[topo.CompleteNeighbor(self, out[2*i])]
				wb := packed[topo.CompleteNeighbor(self, out[2*i+1])]
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
				self := int32(v) | noSelf
				w := packed[v]
				wa := packed[topo.CompleteNeighbor(self, out[2*i])]
				wb := packed[topo.CompleteNeighbor(self, out[2*i+1])]
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
