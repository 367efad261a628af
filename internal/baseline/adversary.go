package baseline

import (
	"plurality/internal/adversary"
	"plurality/internal/opinion"
)

// This file is the baseline runners' adversary support (crash/churn, drop,
// Byzantine lying; see internal/adversary). The rule interface consumes a
// complete sample vector, so a contact that fails — the partner crashed or
// the reply was dropped — aborts the node's update for that activation: no
// information means no move. Byzantine liars misreport their color in the
// sample vector. The crash set and its churn schedule live in
// internal/adversary. Honest runs carry a nil adversary and are
// byte-untouched. Crashed nodes keep their opinions but leave the survivor
// tally the runs record, stop on and report.

// observe fills the sample vector with the adversary's view of node v's
// drawn partners and reports whether the activation may proceed. A crashed
// activator keeps its state, and a single failed contact — crashed partner
// or dropped reply — aborts the whole update: no information means no move.
func observe(adv *adversary.State, down []bool, cols []opinion.Opinion, v int,
	out []int32, samples []opinion.Opinion) bool {
	if down[v] {
		return false
	}
	for i := range samples {
		u := int(out[i])
		if down[u] || adv.DropMessage() {
			return false
		}
		samples[i] = opinion.Opinion(adv.Lie(u, int32(cols[u])))
	}
	return true
}
