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

// capture serializes the run's mutable state after completing `step`.
func (st *state) capture(step, nextTheoretical int, stepRNG *xrand.RNG,
	rec *metrics.Recorder, res *Result) []byte {
	w := &snap.Writer{}
	w.Int(step)
	w.Int(nextTheoretical)
	w.RNG(stepRNG)
	w.U32s(st.packed)
	w.Ints(res.TwoChoicesSteps)
	w.Len32(len(res.Generations))
	for _, g := range res.Generations {
		w.Int(g.Gen)
		w.Int(g.BirthStep)
		w.F64(g.BirthFrac)
		w.F64(g.BirthBias)
		w.Int(g.EstablishedStep)
		w.F64(g.EstablishedBias)
	}
	metrics.EncodeRecorder(w, rec)
	// Adversarial runs append the crash flags and the adversary state; the
	// suffix's presence is a pure function of the Config, so capture and
	// restore agree on it and honest blobs decode unchanged.
	if st.adv != nil {
		st.crash.Encode(w)
		st.adv.EncodeState(w)
	}
	return w.Bytes()
}

// restore overwrites the run's mutable state from a captured payload and
// returns the (step, nextTheoretical) position to resume after. Slices are
// filled in place so caller-held references stay valid; the tallies are
// rebuilt from the restored words, validating every one against (k, G*).
func (st *state) restore(stateBytes []byte, stepRNG *xrand.RNG,
	rec *metrics.Recorder, res *Result, perturb uint64) (step, nextTheoretical int, err error) {
	r := snap.NewReader(stateBytes)
	step = r.Int()
	nextTheoretical = r.Int()
	if err := r.ReadRNG(stepRNG); err != nil {
		return 0, 0, fmt.Errorf("syncgen: step rng: %w", err)
	}
	packed := r.U32s()
	twoChoices := r.Ints()
	nGen := r.Len32(40)
	if e := r.Err(); e != nil {
		return 0, 0, fmt.Errorf("syncgen: state: %w", e)
	}
	gensEvents := make([]GenEvent, nGen)
	for i := range gensEvents {
		gensEvents[i] = GenEvent{
			Gen:             r.Int(),
			BirthStep:       r.Int(),
			BirthFrac:       r.F64(),
			BirthBias:       r.F64(),
			EstablishedStep: r.Int(),
			EstablishedBias: r.F64(),
		}
	}
	if err := metrics.DecodeRecorder(r, rec); err != nil {
		return 0, 0, fmt.Errorf("syncgen: recorder: %w", err)
	}
	if st.adv != nil {
		if err := st.crash.Decode(r); err != nil {
			return 0, 0, fmt.Errorf("syncgen: crash set: %w", err)
		}
		if err := st.adv.DecodeState(r); err != nil {
			return 0, 0, fmt.Errorf("syncgen: adversary state: %w", err)
		}
	}
	if err := r.Finish(); err != nil {
		return 0, 0, fmt.Errorf("syncgen: state: %w", err)
	}
	if len(packed) != st.n {
		return 0, 0, fmt.Errorf("syncgen: %w: node-state length mismatch (blob for a different N?)", snap.ErrCorrupt)
	}
	if step < 0 || nextTheoretical < 0 {
		return 0, 0, fmt.Errorf("syncgen: %w: negative resume position", snap.ErrCorrupt)
	}
	copy(st.packed, packed)
	if err := st.tally.rebuild(st.packed); err != nil {
		return 0, 0, fmt.Errorf("syncgen: %w (blob for a different K or G*?)", err)
	}
	res.Steps = step
	res.TwoChoicesSteps = twoChoices
	res.Generations = gensEvents
	if perturb != 0 {
		stepRNG.Perturb(perturb)
		if st.adv != nil {
			st.adv.Perturb(perturb)
		}
	}
	return step, nextTheoretical, nil
}
