package noleader

import (
	"context"
	"fmt"

	"plurality/internal/cluster"
	"plurality/internal/metrics"
	"plurality/internal/opinion"
	"plurality/internal/sim"
	"plurality/internal/snap"
)

// This file implements the decentralized engine's checkpoint hooks. A
// snapshot embeds the finished clustering (via cluster.EncodeClustering)
// followed by every mutable word of the consensus phase, so a restored run
// skips formation entirely — the warm-start property that makes resumed
// long-horizon runs O(n) instead of O(clustering replay). Config-derived
// constants (C1, G*, thresholds, leader slot order) are recomputed at
// restore from the same seed.

// runSim drives the consensus kernel through the shared checkpoint barrier
// (sim.RunCheckpointed); Ckpt.At is consensus-phase virtual time, and a
// run that stops before reaching it takes no snapshot.
func (rs *consensusState) runSim(ctx context.Context) error {
	return sim.RunCheckpointed(ctx, rs.sm, rs.cfg.Ckpt, rs.capture)
}

// capture serializes the clustering and the consensus phase's mutable
// state.
func (rs *consensusState) capture() []byte {
	w := &snap.Writer{}
	cluster.EncodeClustering(w, rs.cl)
	rs.sm.EncodeState(w)
	rs.clocks.EncodeState(w)
	w.RNG(rs.smp)
	w.RNG(rs.latR)
	opinion.EncodeSlice(w, rs.cols)
	w.I32s(rs.gens)
	w.Bools(rs.finished)
	w.Bools(rs.locked)
	w.I32s(rs.tmpGen)
	w.I8s(rs.tmpState)
	opinion.EncodeCounts(w, rs.counts)
	w.Int(rs.maxGen)
	w.I32s(rs.lGen)
	w.I8s(rs.lState)
	w.I32s(rs.lT)
	w.I32s(rs.lGenSize)
	w.I32s(rs.loadBucket)
	w.U64s(rs.loadCount)
	w.U64(rs.peakLoad)
	w.Bool(rs.mono)
	w.F64(rs.monoAt)
	// The Figure 2 phase marks, flattened in generation order (the same
	// order the final PhaseSpans use) for a canonical encoding.
	marks := 0
	for g := 1; g <= rs.gStar+1; g++ {
		if _, ok := rs.phase[g]; ok {
			marks++
		}
	}
	w.Len32(marks)
	for g := 1; g <= rs.gStar+1; g++ {
		ph, ok := rs.phase[g]
		if !ok {
			continue
		}
		w.Int(ph.Gen)
		w.F64(ph.FirstTwoChoices)
		w.F64(ph.LastTwoChoices)
		w.F64(ph.FirstSleeping)
		w.F64(ph.LastSleeping)
		w.F64(ph.FirstPropagation)
		w.F64(ph.LastPropagation)
	}
	w.U64(rs.res.TotalLeaderMessages)
	w.Bool(rs.res.TimedOut)
	metrics.EncodeRecorder(w, rs.rec)
	// Adversarial runs append the crash flags, the adversary state and the
	// delayed-message arena; the suffix's presence is a pure function of
	// the Config, so capture and restore agree on it and honest blobs
	// decode unchanged.
	if rs.adv != nil {
		rs.crash.Encode(w)
		rs.adv.EncodeState(w)
		rs.payload.EncodeState(w)
	}
	return w.Bytes()
}

// restore overwrites the consensus phase's mutable state from a captured
// payload; the reader is positioned right after the embedded clustering,
// which Run already decoded.
func (rs *consensusState) restore(r *snap.Reader, perturb uint64) error {
	if err := rs.sm.DecodeState(r); err != nil {
		return fmt.Errorf("noleader: kernel state: %w", err)
	}
	if err := rs.clocks.DecodeState(r); err != nil {
		return fmt.Errorf("noleader: clock state: %w", err)
	}
	if err := r.ReadRNG(rs.smp); err != nil {
		return fmt.Errorf("noleader: sampling rng: %w", err)
	}
	if err := r.ReadRNG(rs.latR); err != nil {
		return fmt.Errorf("noleader: latency rng: %w", err)
	}
	cols, err := opinion.DecodeSlice(r, rs.cfg.K)
	if err != nil {
		return fmt.Errorf("noleader: opinions: %w", err)
	}
	gens := r.I32s()
	finished := r.Bools()
	locked := r.Bools()
	tmpGen := r.I32s()
	tmpState := r.I8s()
	counts, err := opinion.DecodeCounts(r, rs.cfg.K)
	if err != nil {
		return fmt.Errorf("noleader: counts: %w", err)
	}
	maxGen := r.Int()
	lGen := r.I32s()
	lState := r.I8s()
	lT := r.I32s()
	lGenSize := r.I32s()
	loadBucket := r.I32s()
	loadCount := r.U64s()
	peakLoad := r.U64()
	mono := r.Bool()
	monoAt := r.F64()
	nMarks := r.Len32(56)
	if err := r.Err(); err != nil {
		return fmt.Errorf("noleader: state: %w", err)
	}
	phase := make(map[int]*GenPhases, nMarks)
	for i := 0; i < nMarks; i++ {
		ph := &GenPhases{
			Gen:              r.Int(),
			FirstTwoChoices:  r.F64(),
			LastTwoChoices:   r.F64(),
			FirstSleeping:    r.F64(),
			LastSleeping:     r.F64(),
			FirstPropagation: r.F64(),
			LastPropagation:  r.F64(),
		}
		if r.Err() != nil {
			return fmt.Errorf("noleader: phase marks: %w", r.Err())
		}
		if ph.Gen < 1 || ph.Gen > rs.gStar+1 {
			return fmt.Errorf("noleader: %w: phase mark for generation %d outside [1, %d]", snap.ErrCorrupt, ph.Gen, rs.gStar+1)
		}
		phase[ph.Gen] = ph
	}
	leaderMsgs := r.U64()
	timedOut := r.Bool()
	if err := metrics.DecodeRecorder(r, rs.rec); err != nil {
		return fmt.Errorf("noleader: recorder: %w", err)
	}
	if rs.adv != nil {
		if err := rs.crash.Decode(r); err != nil {
			return fmt.Errorf("noleader: crash set: %w", err)
		}
		if err := rs.adv.DecodeState(r); err != nil {
			return fmt.Errorf("noleader: adversary state: %w", err)
		}
		if err := rs.payload.DecodeState(r); err != nil {
			return fmt.Errorf("noleader: delayed messages: %w", err)
		}
	}
	if err := r.Finish(); err != nil {
		return fmt.Errorf("noleader: state: %w", err)
	}
	n := rs.cfg.N
	if len(cols) != n || len(gens) != n || len(finished) != n || len(locked) != n ||
		len(tmpGen) != n || len(tmpState) != n {
		return fmt.Errorf("noleader: %w: node-state length mismatch (blob for a different N?)", snap.ErrCorrupt)
	}
	nl := len(rs.lGen)
	if len(lGen) != nl || len(lState) != nl || len(lT) != nl || len(lGenSize) != nl ||
		len(loadBucket) != nl || len(loadCount) != nl {
		return fmt.Errorf("noleader: %w: leader-state length mismatch (blob for a different clustering?)", snap.ErrCorrupt)
	}
	rs.cols = cols
	rs.gens = gens
	rs.finished = finished
	rs.locked = locked
	rs.tmpGen = tmpGen
	rs.tmpState = tmpState
	rs.counts = counts
	rs.maxGen = maxGen
	copy(rs.lGen, lGen)
	copy(rs.lState, lState)
	copy(rs.lT, lT)
	copy(rs.lGenSize, lGenSize)
	copy(rs.loadBucket, loadBucket)
	copy(rs.loadCount, loadCount)
	rs.peakLoad = peakLoad
	rs.mono = mono
	rs.monoAt = monoAt
	rs.phase = phase
	rs.res.TotalLeaderMessages = leaderMsgs
	rs.res.TimedOut = timedOut
	if perturb != 0 {
		rs.smp.Perturb(perturb)
		rs.latR.Perturb(perturb)
		rs.clocks.Perturb(perturb)
		if rs.adv != nil {
			rs.adv.Perturb(perturb)
		}
	}
	return nil
}
