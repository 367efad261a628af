package syncgen

import (
	"fmt"

	"plurality/internal/metrics"
	"plurality/internal/snap"
	"plurality/internal/xrand"
)

// This file implements the synchronous engine's checkpoint hooks. The
// configuration travels as the packed word vector — one uint32 per node —
// and nothing else: the per-generation tallies, generation sizes and the
// maxGen watermark are pure functions of the words (node generations are
// monotone, so the running maximum equals the current maximum) and are
// rebuilt at restore, which halves the payload the historical parallel
// cols/gens slices and dense tally matrix used to occupy. Thresholds and
// the theoretical schedule itself are likewise recomputed from the Config.

// layout runs the run's mutable state after completing *step through c,
// in blob order. The packed words are filled in place, so caller-held
// references stay valid.
func (st *state) layout(c *snap.Codec, step, nextTheoretical *int, stepRNG *xrand.RNG,
	rec *metrics.Recorder, res *Result) {
	c.Int(step)
	c.Int(nextTheoretical)
	c.RNG(stepRNG)
	snap.Words(c, &st.packed)
	snap.Words(c, &res.TwoChoicesSteps)
	snap.Slice(c, &res.Generations, 40, func(c *snap.Codec, g *GenEvent) {
		c.Int(&g.Gen)
		c.Int(&g.BirthStep)
		c.F64(&g.BirthFrac)
		c.F64(&g.BirthBias)
		c.Int(&g.EstablishedStep)
		c.F64(&g.EstablishedBias)
	})
	rec.Layout(c, float64(*step))
	// Adversarial runs append the crash flags and the adversary state; the
	// suffix's presence is a pure function of the Config, so capture and
	// restore agree on it and honest blobs decode unchanged.
	if st.adv != nil {
		st.crash.Layout(c)
		st.adv.Layout(c)
	}
}

// capture serializes the run's mutable state after completing step.
func (st *state) capture(step, nextTheoretical int, stepRNG *xrand.RNG,
	rec *metrics.Recorder, res *Result) []byte {
	c := snap.NewEncoder()
	st.layout(c, &step, &nextTheoretical, stepRNG, rec, res)
	return c.Bytes()
}

// restore overwrites the run's mutable state from a captured payload and
// returns the (step, nextTheoretical) position to resume after. The tallies
// are rebuilt from the restored words, validating every one against
// (k, G*).
func (st *state) restore(stateBytes []byte, stepRNG *xrand.RNG,
	rec *metrics.Recorder, res *Result, perturb uint64) (step, nextTheoretical int, err error) {
	c := snap.NewDecoder(stateBytes)
	st.layout(c, &step, &nextTheoretical, stepRNG, rec, res)
	if err := c.Finish(); err != nil {
		return 0, 0, fmt.Errorf("syncgen: state: %w", err)
	}
	if len(st.packed) != st.n {
		return 0, 0, fmt.Errorf("syncgen: %w: node-state length mismatch (blob for a different N?)", snap.ErrCorrupt)
	}
	if step < 0 || nextTheoretical < 0 {
		return 0, 0, fmt.Errorf("syncgen: %w: negative resume position", snap.ErrCorrupt)
	}
	if err := st.tally.rebuild(st.packed); err != nil {
		return 0, 0, fmt.Errorf("syncgen: %w (blob for a different K or G*?)", err)
	}
	if st.frozen != nil {
		clear(st.frozen)
		clear(st.frozenGen)
		for v, down := range st.crash.Down {
			if down {
				st.noteCrash(v, true)
			}
		}
	}
	res.Steps = step
	if perturb != 0 {
		stepRNG.Perturb(perturb)
		if st.adv != nil {
			st.adv.Perturb(perturb)
		}
	}
	return step, nextTheoretical, nil
}
