package baseline

import (
	"context"
	"fmt"

	"plurality/internal/adversary"
	"plurality/internal/metrics"
	"plurality/internal/opinion"
	"plurality/internal/sim"
	"plurality/internal/snap"
	"plurality/internal/xrand"
)

// This file implements the baseline runners' checkpoint hooks. The
// round-based schedulers (RunSync, RunSequential) have tiny state — the
// opinion vector, the step RNG, the rule's tie-break RNG and the recorder —
// captured at a round (or interaction) boundary; the Poisson scheduler
// additionally carries the event kernel and the per-node clocks, exactly
// like the paper's protocols.

// ruleStream returns a rule's internal RNG (nil for stateless rules); it is
// part of the checkpoint state because tie-break draws advance it.
func ruleStream(rule Rule) *xrand.RNG {
	if m, ok := rule.(*ThreeMajority); ok {
		return m.R
	}
	return nil
}

// encodeRuleStream writes the rule RNG (or its absence).
func encodeRuleStream(w *snap.Writer, rule Rule) {
	s := ruleStream(rule)
	w.Bool(s != nil)
	if s != nil {
		w.RNG(s)
	}
}

// decodeRuleStream restores the rule RNG, validating statefulness agreement
// between the blob and the rule being resumed.
func decodeRuleStream(r *snap.Reader, rule Rule) error {
	has := r.Bool()
	if err := r.Err(); err != nil {
		return err
	}
	s := ruleStream(rule)
	if has != (s != nil) {
		return r.Fail(fmt.Errorf("%w: rule statefulness mismatch (blob for a different rule?)", snap.ErrCorrupt))
	}
	if s != nil {
		return r.ReadRNG(s)
	}
	return nil
}

// roundsState is the shared mutable state of the round-based schedulers.
type roundsState struct {
	tick    int // rounds for RunSync, interactions for RunSequential
	cols    []opinion.Opinion
	rounds  int // res.Rounds at capture
	stepRNG *xrand.RNG
	rule    Rule
	rec     *metrics.Recorder
	adv     *adversary.State // nil for honest runs
	crash   *adversary.Crashes
}

// captureRounds serializes a round-based run at a scheduler boundary.
func captureRounds(st *roundsState) []byte {
	w := &snap.Writer{}
	w.Int(st.tick)
	w.Int(st.rounds)
	w.RNG(st.stepRNG)
	encodeRuleStream(w, st.rule)
	opinion.EncodeSlice(w, st.cols)
	metrics.EncodeRecorder(w, st.rec)
	// Adversarial runs append the crash flags and the adversary state; the
	// suffix's presence is a pure function of the Config, so capture and
	// restore agree on it and honest blobs decode unchanged.
	if st.adv != nil {
		st.crash.Encode(w)
		st.adv.EncodeState(w)
	}
	return w.Bytes()
}

// restoreRounds overwrites a round-based run's state from a captured
// payload, returning the (tick, rounds) pair to resume after. The cols
// slice is filled in place so caller-held references stay valid.
func restoreRounds(state []byte, st *roundsState, k int, perturb uint64) (tick, rounds int, err error) {
	r := snap.NewReader(state)
	tick = r.Int()
	rounds = r.Int()
	if err := r.ReadRNG(st.stepRNG); err != nil {
		return 0, 0, fmt.Errorf("baseline: step rng: %w", err)
	}
	if err := decodeRuleStream(r, st.rule); err != nil {
		return 0, 0, fmt.Errorf("baseline: rule rng: %w", err)
	}
	cols, err := opinion.DecodeSlice(r, k)
	if err != nil {
		return 0, 0, fmt.Errorf("baseline: opinions: %w", err)
	}
	if err := metrics.DecodeRecorder(r, st.rec); err != nil {
		return 0, 0, fmt.Errorf("baseline: recorder: %w", err)
	}
	if st.adv != nil {
		if err := st.crash.Decode(r); err != nil {
			return 0, 0, fmt.Errorf("baseline: crash set: %w", err)
		}
		if err := st.adv.DecodeState(r); err != nil {
			return 0, 0, fmt.Errorf("baseline: adversary state: %w", err)
		}
	}
	if err := r.Finish(); err != nil {
		return 0, 0, fmt.Errorf("baseline: state: %w", err)
	}
	if len(cols) != len(st.cols) {
		return 0, 0, fmt.Errorf("baseline: %w: %d opinions for N=%d (blob for a different N?)", snap.ErrCorrupt, len(cols), len(st.cols))
	}
	if tick < 0 || rounds < 0 {
		return 0, 0, fmt.Errorf("baseline: %w: negative scheduler position", snap.ErrCorrupt)
	}
	copy(st.cols, cols)
	if perturb != 0 {
		st.stepRNG.Perturb(perturb)
		if s := ruleStream(st.rule); s != nil {
			s.Perturb(perturb)
		}
		if st.adv != nil {
			st.adv.Perturb(perturb)
		}
	}
	return tick, rounds, nil
}

// runSim drives the Poisson kernel through the shared checkpoint barrier
// (sim.RunCheckpointed), exactly like the paper's asynchronous engines.
func (ps *poissonState) runSim(ctx context.Context) error {
	return sim.RunCheckpointed(ctx, ps.sm, ps.cfg.Ckpt, ps.capture)
}

// capture serializes a Poisson-scheduler run's mutable state.
func (ps *poissonState) capture() []byte {
	w := &snap.Writer{}
	ps.sm.EncodeState(w)
	ps.clocks.EncodeState(w)
	w.RNG(ps.smp)
	w.RNG(ps.latR)
	encodeRuleStream(w, ps.rule)
	opinion.EncodeSlice(w, ps.cols)
	w.Bools(ps.locked)
	opinion.EncodeCounts(w, ps.counts)
	w.Int(ps.undecided)
	w.Bool(ps.mono)
	w.F64(ps.monoAt)
	metrics.EncodeRecorder(w, ps.rec)
	return w.Bytes()
}

// restore overwrites a Poisson-scheduler run's mutable state from a
// captured payload. The cols slice is filled in place so the caller-held
// reference in RunPoisson stays valid.
func (ps *poissonState) restore(state []byte, perturb uint64) error {
	r := snap.NewReader(state)
	if err := ps.sm.DecodeState(r); err != nil {
		return fmt.Errorf("baseline: kernel state: %w", err)
	}
	if err := ps.clocks.DecodeState(r); err != nil {
		return fmt.Errorf("baseline: clock state: %w", err)
	}
	if err := r.ReadRNG(ps.smp); err != nil {
		return fmt.Errorf("baseline: sampling rng: %w", err)
	}
	if err := r.ReadRNG(ps.latR); err != nil {
		return fmt.Errorf("baseline: latency rng: %w", err)
	}
	if err := decodeRuleStream(r, ps.rule); err != nil {
		return fmt.Errorf("baseline: rule rng: %w", err)
	}
	cols, err := opinion.DecodeSlice(r, ps.cfg.K)
	if err != nil {
		return fmt.Errorf("baseline: opinions: %w", err)
	}
	locked := r.Bools()
	counts, err := opinion.DecodeCounts(r, ps.cfg.K)
	if err != nil {
		return fmt.Errorf("baseline: counts: %w", err)
	}
	undecided := r.Int()
	mono := r.Bool()
	monoAt := r.F64()
	if err := metrics.DecodeRecorder(r, ps.rec); err != nil {
		return fmt.Errorf("baseline: recorder: %w", err)
	}
	if err := r.Finish(); err != nil {
		return fmt.Errorf("baseline: state: %w", err)
	}
	if len(cols) != ps.cfg.N || len(locked) != ps.cfg.N {
		return fmt.Errorf("baseline: %w: node-state length mismatch (blob for a different N?)", snap.ErrCorrupt)
	}
	copy(ps.cols, cols)
	copy(ps.locked, locked)
	ps.counts = counts
	ps.undecided = undecided
	ps.mono = mono
	ps.monoAt = monoAt
	if perturb != 0 {
		ps.smp.Perturb(perturb)
		ps.latR.Perturb(perturb)
		if s := ruleStream(ps.rule); s != nil {
			s.Perturb(perturb)
		}
		ps.clocks.Perturb(perturb)
	}
	return nil
}
