package baseline

import (
	"fmt"

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
// byte-untouched.

// startAdversary builds a round-based run's adversary and, when there is
// one, its crash set.
func startAdversary(cfg *Config, cols []opinion.Opinion) (*adversary.State, adversary.Crashes, error) {
	adv, err := adversary.Start(cfg.Adv, cfg.N, opinion.CountOf(cols, cfg.K), false)
	if err != nil {
		return nil, adversary.Crashes{}, fmt.Errorf("baseline: %w", err)
	}
	if adv == nil {
		return nil, adversary.Crashes{}, nil
	}
	return adv, adversary.NewCrashes(cfg.N), nil
}

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

// settled is the runners' termination test: consensus among the survivors,
// which is every node in an honest run (adv nil).
func settled(cols []opinion.Opinion, k int, adv *adversary.State, crash *adversary.Crashes) bool {
	if adv == nil {
		return monochromatic(cols, k)
	}
	_, ok := crash.Winner(func(v int) opinion.Opinion { return cols[v] })
	return ok
}

// finishAdversarial records the adversary's counters and patches the outcome
// for consensus among the survivors, which the count-based outcome cannot
// see because crashed nodes keep stale colors.
func finishAdversarial(res *Result, adv *adversary.State, crash *adversary.Crashes,
	cols []opinion.Opinion, plurality opinion.Opinion) {
	res.AdvCounters = adv.Counters
	crash.SurvivorConsensus(&res.Outcome, func(v int) opinion.Opinion { return cols[v] },
		float64(res.Rounds), plurality)
}
