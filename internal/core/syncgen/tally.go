package syncgen

import (
	"fmt"

	"plurality/internal/opinion"
	"plurality/internal/snap"
)

// This file implements the per-generation color tallies behind the packed
// sync state. The engine needs three aggregate reads per step — the size of
// each generation (the adaptive two-choices trigger), the color bias inside
// a generation (GenEvent records), and the per-color totals (recording and
// termination) — and historically kept a dense genCol[g][k] matrix for
// them. Dense rows are perfect at small k but waste
// (G*+1)·k space and O(k) scan time per bias query once k approaches
// n^(1/3), so the tally goes sparse above sparseTallyThreshold colors:
// each generation then stores only its occupied (color, count) pairs, kept
// sorted by color so every query is deterministic, plus the engine keeps
// global per-color totals in both modes. The mode is a pure function of k, so capture and restore always
// agree on it.

// sparseTallyThreshold is the color-count bound above which the
// per-generation tallies switch from dense k-wide rows to sorted sparse
// (color, count) pairs. 512 dense int32 rows still fit two cache lines per
// generation; beyond that the dense layout's O(G*·k) memory and O(k) bias
// scans start to dominate small-n runs, and sparse rows cost
// O(log occupied) per update instead.
const sparseTallyThreshold = 512

// tally maintains the generation/color statistics of a run incrementally:
// per-generation color counts (dense or sparse by k), per-generation sizes,
// the highest populated generation, and global per-color totals.
type tally struct {
	k, gCap int
	sparse  bool
	dense   []int32    // (gCap+1)×k row-major color counts; nil when sparse
	rows    []tallyRow // per-generation occupied colors; nil when dense
	genSize []int
	maxGen  int
	// colTot[c] counts supporters of color c across all generations; the
	// opinion.Counts type lets the recorder consume it directly.
	colTot opinion.Counts
	// diff stages one synchronous step's (generation, color) deltas in dense
	// mode: the step's fold loops do two branch-free adds per changed node
	// into this small array and collapse() folds it into the aggregates once
	// per step. nil in sparse mode, all-zero between steps.
	diff []int32
	// Sparse-mode staging: rowDiff[g] is a k-wide scratch row allocated the
	// first time a step's fold touches generation g (diffGens lists them,
	// freeRows recycles them). Changed nodes cost two indexed adds instead
	// of two sorted-row searches; collapse() then merges each touched
	// scratch row into the sorted representation in one linear pass per
	// generation. Scratch memory is O(touched generations · k) per step and
	// transient — the sorted rows stay the canonical O(occupied) state.
	rowDiff   [][]int32
	diffGens  []int
	freeRows  [][]int32
	mergeKeys []int32
	mergeVals []int32
}

// tallyRow lists one generation's occupied colors, sorted ascending, with
// their counts. Zero-count entries are removed eagerly, so len(keys) is the
// number of colors present in the generation.
type tallyRow struct {
	keys []int32
	vals []int32
}

// newTally returns an empty tally for k colors and generations 0..gCap,
// picking the dense or sparse representation by k.
func newTally(k, gCap int) *tally {
	return newTallyMode(k, gCap, k > sparseTallyThreshold)
}

// newTallyMode is newTally with the representation forced — the test hook
// that pins sparse ≡ dense on the same run.
func newTallyMode(k, gCap int, sparse bool) *tally {
	t := &tally{
		k: k, gCap: gCap, sparse: sparse,
		genSize: make([]int, gCap+1),
		colTot:  make(opinion.Counts, k),
	}
	if sparse {
		t.rows = make([]tallyRow, gCap+1)
		t.rowDiff = make([][]int32, gCap+1)
	} else {
		t.dense = make([]int32, (gCap+1)*k)
		t.diff = make([]int32, (gCap+1)*k)
	}
	return t
}

// rebuild derives the full tally from a packed configuration vector,
// validating every word on the way (restore feeds it untrusted blobs). All
// aggregates are pure functions of the configuration, which is what lets
// snapshots carry only the packed words.
func (t *tally) rebuild(packed []uint32) error {
	for i := range t.genSize {
		t.genSize[i] = 0
	}
	for i := range t.colTot {
		t.colTot[i] = 0
	}
	if t.sparse {
		for g := range t.rows {
			t.rows[g].keys = t.rows[g].keys[:0]
			t.rows[g].vals = t.rows[g].vals[:0]
		}
		// Staged scratch rows are empty between steps; clear defensively so
		// a restore mid-construction cannot leak stale deltas.
		for _, g := range t.diffGens {
			if d := t.rowDiff[g]; d != nil {
				for i := range d {
					d[i] = 0
				}
				t.freeRows = append(t.freeRows, d)
				t.rowDiff[g] = nil
			}
		}
		t.diffGens = t.diffGens[:0]
	} else {
		for i := range t.dense {
			t.dense[i] = 0
		}
		for i := range t.diff {
			t.diff[i] = 0
		}
	}
	t.maxGen = 0
	for v, w := range packed {
		g, c := int(w>>genShift), int(w&colMask)
		if c >= t.k {
			return fmt.Errorf("%w: node %d holds color %d outside [0, %d)", snap.ErrCorrupt, v, c, t.k)
		}
		if g > t.gCap {
			return fmt.Errorf("%w: node %d holds generation %d beyond G* %d", snap.ErrCorrupt, v, g, t.gCap)
		}
		t.inc(g, c)
		t.genSize[g]++
		if g > t.maxGen {
			t.maxGen = g
		}
		t.colTot[c]++
	}
	return nil
}

// rowDiffFor returns generation g's staged scratch row, allocating (or
// recycling) it on first touch within a step.
func (t *tally) rowDiffFor(g int) []int32 {
	d := t.rowDiff[g]
	if d == nil {
		if n := len(t.freeRows); n > 0 {
			d = t.freeRows[n-1]
			t.freeRows = t.freeRows[:n-1]
		} else {
			d = make([]int32, t.k)
		}
		t.rowDiff[g] = d
		t.diffGens = append(t.diffGens, g)
	}
	return d
}

// mergeRow folds generation g's staged scratch row into its sorted
// representation in one linear pass: the scratch row enumerates colors
// ascending, the sorted row is walked alongside, and the merged entries are
// rebuilt without any per-entry search. Zero results are dropped (the
// eager-removal invariant) and every global aggregate — generation size,
// per-color totals and the maxGen watermark — folds from
// the same pass.
func (t *tally) mergeRow(g int) {
	d := t.rowDiff[g]
	t.rowDiff[g] = nil
	row := &t.rows[g]
	nk, nv := t.mergeKeys[:0], t.mergeVals[:0]
	i, nrow := 0, len(row.keys)
	gs := 0
	for c := 0; c < t.k; c++ {
		var cur int32
		if i < nrow && row.keys[i] == int32(c) {
			cur = row.vals[i]
			i++
		}
		delta := d[c]
		if delta == 0 {
			if cur != 0 {
				nk = append(nk, int32(c))
				nv = append(nv, cur)
			}
			continue
		}
		d[c] = 0
		val := cur + delta
		if val < 0 {
			panic(fmt.Sprintf("syncgen: tally underflow at generation %d color %d", g, c))
		}
		if val != 0 {
			nk = append(nk, int32(c))
			nv = append(nv, val)
		}
		gs += int(delta)
		t.colTot[c] += int(delta)
	}
	row.keys = append(row.keys[:0], nk...)
	row.vals = append(row.vals[:0], nv...)
	t.genSize[g] += gs
	if g > t.maxGen && t.genSize[g] > 0 {
		t.maxGen = g
	}
	t.freeRows = append(t.freeRows, d)
	t.mergeKeys, t.mergeVals = nk[:0], nv[:0]
}

// collapse folds a step's staged diffs into every aggregate and zeroes
// them. Dense mode scans the diff matrix; only generations up to maxGen+1
// can have staged deltas — node generations are monotone and grow one step
// at a time — so the scan is bounded by the occupied prefix, not G*.
// Sparse mode merges each touched generation's scratch row (mergeRow). In
// both modes per-cell deltas are plain sums, so neither the order the
// cells fold in nor the chunk they were staged in can change the result.
func (t *tally) collapse() {
	if t.sparse {
		for _, g := range t.diffGens {
			t.mergeRow(g)
		}
		t.diffGens = t.diffGens[:0]
		return
	}
	hi := t.maxGen + 1
	if hi > t.gCap {
		hi = t.gCap
	}
	for g := 0; g <= hi; g++ {
		base := g * t.k
		gs := 0
		for c := 0; c < t.k; c++ {
			d := t.diff[base+c]
			if d == 0 {
				continue
			}
			t.diff[base+c] = 0
			nv := t.dense[base+c] + d
			if nv < 0 {
				panic(fmt.Sprintf("syncgen: tally underflow at generation %d color %d", g, c))
			}
			t.dense[base+c] = nv
			gs += int(d)
			t.colTot[c] += int(d)
		}
		t.genSize[g] += gs
	}
	if hi > t.maxGen && t.genSize[hi] > 0 {
		t.maxGen = hi
	}
}

// inc adds one supporter of color c to generation g.
func (t *tally) inc(g, c int) {
	if !t.sparse {
		t.dense[g*t.k+c]++
		return
	}
	row := &t.rows[g]
	i, ok := row.find(int32(c))
	if ok {
		row.vals[i]++
		return
	}
	row.keys = append(row.keys, 0)
	row.vals = append(row.vals, 0)
	copy(row.keys[i+1:], row.keys[i:])
	copy(row.vals[i+1:], row.vals[i:])
	row.keys[i] = int32(c)
	row.vals[i] = 1
}

// find locates color c in the row, returning its index when present or the
// sorted insertion point otherwise. The keys are distinct sorted values, so
// keys[i] >= i always: a row whose occupied prefix is packed answers
// keys[c] == c in O(1) — the dominant case once a wide opinion space fills
// its generations — and otherwise c can only sit below index c, so the
// search gallops left from that bound and the cost is logarithmic in the
// number of missing colors, not in the row length.
func (row *tallyRow) find(c int32) (int, bool) {
	keys := row.keys
	n := len(keys)
	hi := n
	if int(c) < n {
		if keys[c] == c {
			return int(c), true
		}
		hi = int(c)
	}
	lo := 0
	for step := 1; hi > 0; step <<= 1 {
		p := hi - step
		if p < 0 {
			p = 0
		}
		if keys[p] <= c {
			lo = p
			break
		}
		hi = p
	}
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if keys[mid] < c {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < n && keys[lo] == c
}

// count returns the number of generation-g supporters of color c.
func (t *tally) count(g, c int) int {
	if !t.sparse {
		return int(t.dense[g*t.k+c])
	}
	if i, ok := t.rows[g].find(int32(c)); ok {
		return int(t.rows[g].vals[i])
	}
	return 0
}

// counts returns the live global per-color totals (not a copy) — the
// recorder's replacement for re-counting the configuration every snapshot.
func (t *tally) counts() opinion.Counts { return t.colTot }

// rowBias returns the color bias inside generation g, computing exactly
// what opinion.Counts.Bias would on the dense k-wide row (1 when the
// generation is empty, the pseudo-infinite winner count when only one color
// is present). The sparse path scans only the occupied colors: they are
// sorted ascending, and TopTwo's min-index tie-breaks depend only on the
// relative order of the positive entries, so the scan reproduces the dense
// result bit-for-bit.
func (t *tally) rowBias(g int) float64 {
	if !t.sparse {
		return denseRowBias(t.dense[g*t.k : (g+1)*t.k])
	}
	row := &t.rows[g]
	if len(row.keys) == 0 {
		return 1
	}
	if len(row.keys) == 1 {
		return float64(row.vals[0])
	}
	first, second := 0, -1
	for i := 1; i < len(row.vals); i++ {
		switch {
		case row.vals[i] > row.vals[first]:
			second = first
			first = i
		case second == -1 || row.vals[i] > row.vals[second]:
			second = i
		}
	}
	return float64(row.vals[first]) / float64(row.vals[second])
}

// denseRowBias is opinion.Counts.TopTwo + Bias over an int32 row, kept in
// lockstep with the opinion package so dense tallies report identical
// biases to the historical genCol matrix.
func denseRowBias(row []int32) float64 {
	first, second := 0, -1
	for i := 1; i < len(row); i++ {
		switch {
		case row[i] > row[first]:
			second = first
			first = i
		case second == -1 || row[i] > row[second]:
			second = i
		}
	}
	if second < 0 || row[second] == 0 {
		if row[first] == 0 {
			return 1
		}
		return float64(row[first])
	}
	return float64(row[first]) / float64(row[second])
}
