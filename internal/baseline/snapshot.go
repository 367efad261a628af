package baseline

import (
	"fmt"

	"plurality/internal/adversary"
	"plurality/internal/metrics"
	"plurality/internal/opinion"
	"plurality/internal/snap"
	"plurality/internal/xrand"
)

// This file implements the round-based runners' checkpoint hooks. RunSync
// and RunSequential have tiny state — the opinion vector, the step RNG, the
// rule's tie-break RNG and the recorder — captured at a round (or
// interaction) boundary.

// ruleStream returns a rule's internal RNG (nil for stateless rules); it is
// part of the checkpoint state because tie-break draws advance it.
func ruleStream(rule Rule) *xrand.RNG {
	if m, ok := rule.(*ThreeMajority); ok {
		return m.R
	}
	return nil
}

// roundsState is the shared mutable state of the round-based schedulers.
type roundsState struct {
	tick    int // rounds for RunSync, interactions for RunSequential
	perTick int // ticks per recorded time unit: 1 for RunSync, N for RunSequential
	k       int
	cols    []opinion.Opinion
	rounds  int // res.Rounds at capture
	stepRNG *xrand.RNG
	rule    Rule
	rec     *metrics.Recorder
	adv     *adversary.State  // nil for honest runs
	crash   adversary.Crashes // every node up in an honest run

	// tally is the survivors' opinion tally (see startRounds), rebuilt
	// from cols rather than captured, counts its opinion part and
	// plurality the initially dominant opinion.
	tally     []int
	counts    opinion.Counts
	plurality opinion.Opinion
}

// layout runs a round-based run's state through c, in blob order. The cols
// slice is filled in place, so caller-held references stay valid.
func (st *roundsState) layout(c *snap.Codec) {
	c.Int(&st.tick)
	c.Int(&st.rounds)
	c.RNG(st.stepRNG)
	// The rule RNG, or its absence; a decoder checks that the blob and the
	// resumed rule agree on statefulness.
	s := ruleStream(st.rule)
	has := s != nil
	c.Bool(&has)
	c.Require(has == (s != nil), "rule statefulness mismatch (blob for a different rule?)")
	if s != nil {
		c.RNG(s)
	}
	opinion.SliceLayout(c, &st.cols, st.k)
	st.rec.Layout(c, float64(st.tick)/float64(st.perTick))
	// Adversarial runs append the crash flags and the adversary state; the
	// suffix's presence is a pure function of the Config, so capture and
	// restore agree on it and honest blobs decode unchanged.
	if st.adv != nil {
		st.crash.Layout(c)
		st.adv.Layout(c)
	}
}

// capture serializes a round-based run at a scheduler boundary.
func (st *roundsState) capture(tick, rounds int, cols []opinion.Opinion) []byte {
	st.tick, st.rounds, st.cols = tick, rounds, cols
	c := snap.NewEncoder()
	st.layout(c)
	return c.Bytes()
}

// restore overwrites a round-based run's state from a captured payload,
// returning the (tick, rounds) pair to resume after.
func (st *roundsState) restore(state []byte, perturb uint64) (tick, rounds int, err error) {
	n := len(st.cols)
	c := snap.NewDecoder(state)
	st.layout(c)
	if err := c.Finish(); err != nil {
		return 0, 0, fmt.Errorf("baseline: state: %w", err)
	}
	if len(st.cols) != n {
		return 0, 0, fmt.Errorf("baseline: %w: %d opinions for N=%d (blob for a different N?)", snap.ErrCorrupt, len(st.cols), n)
	}
	if st.tick < 0 || st.rounds < 0 {
		return 0, 0, fmt.Errorf("baseline: %w: negative scheduler position", snap.ErrCorrupt)
	}
	if perturb != 0 {
		st.stepRNG.Perturb(perturb)
		if s := ruleStream(st.rule); s != nil {
			s.Perturb(perturb)
		}
		if st.adv != nil {
			st.adv.Perturb(perturb)
		}
	}
	return st.tick, st.rounds, nil
}
