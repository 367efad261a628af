package syncgen

import (
	"plurality/internal/topo"
	"plurality/internal/xrand"
)

// This file is the synchronous engine's adversary support. The honest step
// loop (state.step) is byte-untouched: adversarial runs execute the separate
// stepAdversarial variant below, so the honest RNG draw order and branch
// structure never change. The crash set and its churn schedule live in
// internal/adversary; Run applies the actions due before each step.

// stepAdversarial is state.step with the adversary consulted at the apply
// stage: crashed nodes keep their state and are unreadable when sampled, the
// drop adversary loses sampled replies, and Byzantine liars report the lie
// target. The partner batch draws are identical to the honest loop, and —
// unlike the honest loop's cache-blocked traversal — the apply stage walks
// nodes in id order: the adversary's own generator carries every extra
// decision, and those draws happen in processing order, so reordering the
// walk would reorder the adversary's stream and break its golden digests.
func (st *state) stepAdversarial(r *xrand.RNG, tp topo.BatchSampler, twoChoices bool) {
	st.drawPartners(r, tp)
	n := st.n
	adv, down := st.adv, st.crash.Down
	gCap := uint32(st.gCap)
	for v := 0; v < n; v++ {
		w := st.packed[v]
		st.next[v] = w
		if down[v] {
			continue
		}
		a, b := int(st.partners[2*v]), int(st.partners[2*v+1])
		aUp := !down[a] && !adv.DropMessage()
		bUp := !down[b] && !adv.DropMessage()
		wa, wb := st.packed[a], st.packed[b]
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
		st.next[v] = nw
		if nw != w {
			st.tally.moveWord(w, nw)
		}
	}
	st.packed, st.next = st.next, st.packed
}
