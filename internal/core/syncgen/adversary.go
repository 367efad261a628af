package syncgen

import (
	"math"

	"plurality/internal/topo"
	"plurality/internal/xrand"
)

// This file is the synchronous engine's adversary support. An adversarial
// run takes the same chunked round loop as an honest one (state.step),
// which hands each chunk to adversarialChunk below, so the honest kernels
// carry no adversary checks. The crash set and its churn schedule live in
// internal/adversary; Run applies the actions due before each step.

// adversarialChunk is one chunk of state.step — nodes [base, base+m) — with
// the adversary consulted at the apply stage: crashed nodes keep their
// state and are unreadable when sampled, the drop adversary loses sampled
// replies, and Byzantine liars report the lie target. The partner draws
// are the honest chunk's. The adversary's own generator carries every
// extra decision and is consulted node by node in id order, so, like the
// step stream, it is consumed in node-id order.
func (st *state) adversarialChunk(r *xrand.RNG, tp topo.BatchSampler, complete bool, base, m int, twoChoices bool) {
	vs, out := st.scratch.Buffers(2 * m)
	noSelf := int32(math.MaxInt32)
	if complete {
		r.FillInt32n(int32(st.n-1), out)
		noSelf = 0
	} else {
		for i := 0; i < m; i++ {
			v := int32(base + i)
			vs[2*i] = v
			vs[2*i+1] = v
		}
		tp.SampleNeighbors(r, vs, out)
	}
	adv, down := st.adv, st.crash.Down
	packed, next := st.packed, st.next
	gCap := uint32(st.gCap)
	nd := 0
	for i := 0; i < m; i++ {
		v := base + i
		w := packed[v]
		next[v] = w
		if down[v] {
			continue
		}
		self := int32(v) | noSelf
		a := int(topo.CompleteNeighbor(self, out[2*i]))
		b := int(topo.CompleteNeighbor(self, out[2*i+1]))
		aUp := !down[a] && !adv.DropMessage()
		bUp := !down[b] && !adv.DropMessage()
		wa, wb := packed[a], packed[b]
		ga, gb := wa>>genShift, wb>>genShift
		ca := uint32(adv.Lie(a, int32(wa&colMask)))
		cb := uint32(adv.Lie(b, int32(wb&colMask)))
		// wlog the a-side is the best available sample: swap when a is
		// unreadable or b is readable with the higher generation.
		if !aUp || (bUp && ga < gb) {
			aUp, bUp = bUp, aUp
			ga, gb = gb, ga
			ca, cb = cb, ca
		}
		if !aUp {
			continue // no readable sample: keep state
		}
		nw := w
		switch {
		case twoChoices && bUp &&
			ga == gb && w>>genShift <= ga && ga < gCap && ca == cb:
			nw = (ga+1)<<genShift | ca
		case ga > w>>genShift:
			nw = ga<<genShift | ca
		}
		next[v] = nw
		if nw != w {
			st.deltaOld[nd] = w
			st.deltaNew[nd] = nw
			nd++
		}
	}
	st.foldDeltas(nd)
}
