package syncgen

import (
	"testing"

	"plurality/internal/metrics"
	"plurality/internal/opinion"
	"plurality/internal/topo"
	"plurality/internal/xrand"
)

// This file pins the packed memory layout against straightforward reference
// implementations. The engine stores each node's (opinion, generation) pair
// in one uint32 and keeps every aggregate incrementally — these tests hold
// that machinery to the definitional form: parallel cols/gens slices stepped
// with scalar draws, and tallies recounted (or re-represented) from scratch.

// refState is the unpacked, scalar reference of the synchronous update: the
// historical parallel cols/gens layout, partner draws taken one scalar
// SampleNeighbor call at a time in node-id order. By the scalar-equivalence
// invariant it consumes the RNG stream exactly as the packed engine's
// chunked batch draws.
type refState struct {
	cols []opinion.Opinion
	gens []int
}

func newRefState(cols []opinion.Opinion) *refState {
	return &refState{
		cols: append([]opinion.Opinion(nil), cols...),
		gens: make([]int, len(cols)),
	}
}

func (rs *refState) step(r *xrand.RNG, tp topo.Sampler, gCap int, twoChoices bool) {
	n := len(rs.cols)
	pa := make([]int, n)
	pb := make([]int, n)
	for v := 0; v < n; v++ {
		pa[v] = tp.SampleNeighbor(r, v)
		pb[v] = tp.SampleNeighbor(r, v)
	}
	ncols := append([]opinion.Opinion(nil), rs.cols...)
	ngens := append([]int(nil), rs.gens...)
	for v := 0; v < n; v++ {
		ca, ga := rs.cols[pa[v]], rs.gens[pa[v]]
		cb, gb := rs.cols[pb[v]], rs.gens[pb[v]]
		if ga < gb { // wlog gen(a) >= gen(b)
			ca, ga, cb, gb = cb, gb, ca, ga
		}
		switch {
		case twoChoices && ga == gb && ca == cb && rs.gens[v] <= ga && ga < gCap:
			ncols[v], ngens[v] = ca, ga+1
		case ga > rs.gens[v]:
			ncols[v], ngens[v] = ca, ga
		}
	}
	rs.cols, rs.gens = ncols, ngens
}

// TestPackedStateEquivalence steps the packed engine and the unpacked
// reference in lockstep over every topology kind — the complete graph's raw
// draws and the other graphs' SampleNeighbors draws — at n=3000, so every
// step crosses a stepChunk boundary, and demands the full configuration
// match word-for-word after every round, two-choices and propagation rounds
// interleaved.
func TestPackedStateEquivalence(t *testing.T) {
	const n, k, gStar, steps = 3000, 6, 7, 40
	ring, err := topo.NewRing(n, 3)
	if err != nil {
		t.Fatal(err)
	}
	torus, err := topo.NewTorus(50, 60)
	if err != nil {
		t.Fatal(err)
	}
	reg, err := topo.NewRandomRegular(n, 6, 11)
	if err != nil {
		t.Fatal(err)
	}
	tops := map[string]topo.Sampler{
		"complete": topo.NewComplete(n), "ring": ring,
		"torus": torus, "random-regular": reg,
	}
	for kind, tp := range tops {
		t.Run(kind, func(t *testing.T) {
			cols := opinion.PlantedBias(n, k, 2, xrand.New(7))
			st := newState(cols, k, gStar, nil)
			ref := newRefState(cols)
			rPacked, rRef := xrand.New(99), xrand.New(99)
			bs := topo.Batch(tp)
			for s := 0; s < steps; s++ {
				twoChoices := s%3 == 0
				st.step(rPacked, bs, twoChoices)
				ref.step(rRef, tp, gStar, twoChoices)
				for v := 0; v < n; v++ {
					w := st.packed[v]
					if got, want := int(w&colMask), int(ref.cols[v]); got != want {
						t.Fatalf("step %d node %d: packed color %d, reference %d", s, v, got, want)
					}
					if got, want := int(w>>genShift), ref.gens[v]; got != want {
						t.Fatalf("step %d node %d: packed generation %d, reference %d", s, v, got, want)
					}
				}
			}
		})
	}
}

// checkTalliesAgree compares every observable of two tallies over the same
// configuration: global counts, generation sizes, watermark, biases and
// individual cells.
func checkTalliesAgree(t *testing.T, step int, a, b *tally) {
	t.Helper()
	if a.maxGen != b.maxGen {
		t.Fatalf("step %d: maxGen %d vs %d", step, a.maxGen, b.maxGen)
	}
	for g := 0; g <= a.gCap; g++ {
		if a.genSize[g] != b.genSize[g] {
			t.Fatalf("step %d: genSize[%d] %d vs %d", step, g, a.genSize[g], b.genSize[g])
		}
		if ab, bb := a.rowBias(g), b.rowBias(g); ab != bb {
			t.Fatalf("step %d: rowBias(%d) %v vs %v", step, g, ab, bb)
		}
	}
	for c := 0; c < a.k; c++ {
		if a.colTot[c] != b.colTot[c] {
			t.Fatalf("step %d: colTot[%d] %d vs %d", step, c, a.colTot[c], b.colTot[c])
		}
	}
	for g := 0; g <= a.maxGen; g++ {
		for c := 0; c < a.k; c++ {
			if a.count(g, c) != b.count(g, c) {
				t.Fatalf("step %d: count(%d, %d) %d vs %d", step, g, c, a.count(g, c), b.count(g, c))
			}
		}
	}
}

// TestSparseDenseTallyEquivalence runs the same configuration through a
// naturally-sparse state (k above the threshold) and a forced-dense twin,
// comparing every tally observable after every step. The representation is
// an implementation detail; no observable may depend on it.
func TestSparseDenseTallyEquivalence(t *testing.T) {
	const n, k, gStar, steps = 4000, 600, 6, 30
	if k <= sparseTallyThreshold {
		t.Fatalf("test needs k > sparseTallyThreshold %d to exercise sparse mode", sparseTallyThreshold)
	}
	cols := opinion.PlantedBias(n, k, 3, xrand.New(5))
	tp := topo.NewComplete(n)
	stSparse := newState(cols, k, gStar, nil)
	stDense := newState(cols, k, gStar, nil)
	stDense.tally = newTallyMode(k, gStar, false)
	if err := stDense.tally.rebuild(stDense.packed); err != nil {
		t.Fatal(err)
	}
	if !stSparse.tally.sparse || stDense.tally.sparse {
		t.Fatal("mode setup wrong: want one sparse and one forced-dense tally")
	}
	rs, rd := xrand.New(21), xrand.New(21)
	bs := topo.Batch(tp)
	for s := 0; s < steps; s++ {
		twoChoices := s%2 == 0
		stSparse.step(rs, bs, twoChoices)
		stDense.step(rd, bs, twoChoices)
		for v := 0; v < n; v++ {
			if stSparse.packed[v] != stDense.packed[v] {
				t.Fatalf("step %d: configurations diverged at node %d", s, v)
			}
		}
		checkTalliesAgree(t, s, stSparse.tally, stDense.tally)
	}
}

// TestLargeKStress drives the sparse tally at the issue's stress point —
// n = 10^5 nodes over k = 10^3 opinions — and cross-checks the incremental
// aggregates against a from-scratch rebuild at several steps. Bounded step
// count keeps it CI-cheap; the point is that the sparse representation
// survives a realistically wide opinion space without dense O(G*·k) scans.
func TestLargeKStress(t *testing.T) {
	const n, k, gStar, steps = 100000, 1000, 8, 12
	cols := opinion.PlantedBias(n, k, 2, xrand.New(3))
	tp := topo.NewComplete(n)
	st := newState(cols, k, gStar, nil)
	if !st.tally.sparse {
		t.Fatalf("k = %d must select the sparse tally (threshold %d)", k, sparseTallyThreshold)
	}
	r := xrand.New(17)
	bs := topo.Batch(tp)
	for s := 0; s < steps; s++ {
		st.step(r, bs, s%3 == 0)
		if s%4 != 3 {
			continue
		}
		fresh := newTallyMode(k, gStar, true)
		if err := fresh.rebuild(st.packed); err != nil {
			t.Fatalf("step %d: rebuild: %v", s, err)
		}
		checkTalliesAgree(t, s, st.tally, fresh)
	}
	// The stressed configuration must still checkpoint: capture carries only
	// the packed words, so a sparse-mode restore rebuilds the whole tally.
	var res Result
	rec := metrics.NewRecorder(0.1, true, nil)
	blob := st.capture(steps, steps+1, r, rec, &res)
	st2 := newState(cols, k, gStar, nil)
	rec2 := metrics.NewRecorder(0.1, true, nil)
	if _, _, err := st2.restore(blob, xrand.New(0), rec2, &Result{}, 0); err != nil {
		t.Fatalf("sparse restore: %v", err)
	}
	for v := 0; v < n; v++ {
		if st.packed[v] != st2.packed[v] {
			t.Fatalf("restored configuration diverged at node %d", v)
		}
	}
	checkTalliesAgree(t, steps, st.tally, st2.tally)
}
