package leader

import (
	"context"
	"fmt"

	"plurality/internal/metrics"
	"plurality/internal/opinion"
	"plurality/internal/sim"
	"plurality/internal/snap"
)

// This file implements the single-leader engine's checkpoint hooks. A
// capture serializes every mutable word of a run — the kernel event heap,
// the struct-of-arrays Poisson clocks, the sampling/latency RNG streams,
// the dense node state, the leader automaton, the congestion counters, the
// partial result and the trajectory recorder — while everything derivable
// from the Config (thresholds, the planted assignment, the victim set, the
// topology) is recomputed at restore from the same seed, keeping blobs
// small and version drift detectable.

// runSim drives the kernel through the shared checkpoint barrier
// (sim.RunCheckpointed): a run that stops before reaching Ckpt.At takes no
// snapshot.
func (rs *runState) runSim(ctx context.Context) error {
	return sim.RunCheckpointed(ctx, rs.sm, rs.cfg.Ckpt, rs.capture)
}

// capture serializes the run's mutable state.
func (rs *runState) capture() []byte {
	w := &snap.Writer{}
	rs.sm.EncodeState(w)
	rs.clocks.EncodeState(w)
	w.RNG(rs.tickR)
	w.RNG(rs.latR)
	opinion.EncodeSlice(w, rs.cols)
	w.I32s(rs.gens)
	w.Bools(rs.locked)
	w.I32s(rs.seenG)
	w.Bools(rs.seenP)
	opinion.EncodeCounts(w, rs.colorCount)
	w.Ints(rs.genCount)
	w.Int(rs.maxGen)
	w.Int(rs.leaderGen)
	w.Bool(rs.leaderProp)
	w.Int(rs.leaderT)
	w.Int(rs.leaderSize)
	w.Bools(rs.propSeen)
	w.I32(rs.loadBucket)
	w.U64(rs.loadCount)
	w.U64(rs.peakLoad)
	w.Bool(rs.mono)
	w.F64(rs.monoAt)
	w.U64(rs.totalTicks)
	rs.crash.Encode(w)
	w.U64(rs.res.TotalLeaderMessages)
	w.Bool(rs.res.TimedOut)
	w.Len32(len(rs.res.PhaseLog))
	for _, pe := range rs.res.PhaseLog {
		w.F64(pe.Time)
		w.Int(pe.Gen)
		w.Int(int(pe.Phase))
	}
	metrics.EncodeRecorder(w, rs.rec)
	// Adversarial runs append the adversary generator/counters and the
	// payload arena; the suffix's presence is a pure function of the Config,
	// so capture and restore agree on it and honest (pre-adversary) blobs
	// decode unchanged.
	if rs.adv != nil {
		rs.adv.EncodeState(w)
		rs.payload.EncodeState(w)
	}
	return w.Bytes()
}

// restore overwrites the run's mutable state from a captured payload and
// applies the divergence perturbation. It must run after the deterministic
// setup (which allocates every slice at its configured size) and instead of
// the initial event scheduling.
func (rs *runState) restore(state []byte, perturb uint64) error {
	r := snap.NewReader(state)
	if err := rs.sm.DecodeState(r); err != nil {
		return fmt.Errorf("leader: kernel state: %w", err)
	}
	if err := rs.clocks.DecodeState(r); err != nil {
		return fmt.Errorf("leader: clock state: %w", err)
	}
	if err := r.ReadRNG(rs.tickR); err != nil {
		return fmt.Errorf("leader: sampling rng: %w", err)
	}
	if err := r.ReadRNG(rs.latR); err != nil {
		return fmt.Errorf("leader: latency rng: %w", err)
	}
	cols, err := opinion.DecodeSlice(r, rs.cfg.K)
	if err != nil {
		return fmt.Errorf("leader: opinions: %w", err)
	}
	gens := r.I32s()
	locked := r.Bools()
	seenG := r.I32s()
	seenP := r.Bools()
	colorCount, err := opinion.DecodeCounts(r, rs.cfg.K)
	if err != nil {
		return fmt.Errorf("leader: color counts: %w", err)
	}
	genCount := r.Ints()
	maxGen := r.Int()
	leaderGen := r.Int()
	leaderProp := r.Bool()
	leaderT := r.Int()
	leaderSize := r.Int()
	propSeen := r.Bools()
	loadBucket := r.I32()
	loadCount := r.U64()
	peakLoad := r.U64()
	mono := r.Bool()
	monoAt := r.F64()
	totalTicks := r.U64()
	if err := rs.crash.Decode(r); err != nil {
		return fmt.Errorf("leader: crash set: %w", err)
	}
	leaderMsgs := r.U64()
	timedOut := r.Bool()
	nPhases := r.Len32(24)
	if err := r.Err(); err != nil {
		return fmt.Errorf("leader: state: %w", err)
	}
	phaseLog := make([]PhaseEvent, nPhases)
	for i := range phaseLog {
		phaseLog[i] = PhaseEvent{Time: r.F64(), Gen: r.Int(), Phase: Phase(r.Int())}
	}
	if err := metrics.DecodeRecorder(r, rs.rec); err != nil {
		return fmt.Errorf("leader: recorder: %w", err)
	}
	if rs.adv != nil {
		if err := rs.adv.DecodeState(r); err != nil {
			return fmt.Errorf("leader: adversary state: %w", err)
		}
		if err := rs.payload.DecodeState(r); err != nil {
			return fmt.Errorf("leader: payload arena: %w", err)
		}
	}
	if err := r.Finish(); err != nil {
		return fmt.Errorf("leader: state: %w", err)
	}
	n := rs.cfg.N
	if len(cols) != n || len(gens) != n || len(locked) != n || len(seenG) != n ||
		len(seenP) != n {
		return fmt.Errorf("leader: %w: node-state length mismatch (blob for a different N?)", snap.ErrCorrupt)
	}
	if len(genCount) != len(rs.genCount) || len(propSeen) != len(rs.propSeen) {
		return fmt.Errorf("leader: %w: generation-state length mismatch (blob for a different G*?)", snap.ErrCorrupt)
	}
	if maxGen < 0 || maxGen >= len(genCount) || leaderGen < 1 || leaderGen > rs.gStar {
		return fmt.Errorf("leader: %w: generation indices out of range", snap.ErrCorrupt)
	}
	rs.cols = cols
	rs.gens = gens
	rs.locked = locked
	rs.seenG = seenG
	rs.seenP = seenP
	rs.colorCount = colorCount
	rs.genCount = genCount
	rs.maxGen = maxGen
	rs.leaderGen = leaderGen
	rs.leaderProp = leaderProp
	rs.leaderT = leaderT
	rs.leaderSize = leaderSize
	rs.propSeen = propSeen
	rs.loadBucket = loadBucket
	rs.loadCount = loadCount
	rs.peakLoad = peakLoad
	rs.mono = mono
	rs.monoAt = monoAt
	rs.totalTicks = totalTicks
	rs.res.TotalLeaderMessages = leaderMsgs
	rs.res.TimedOut = timedOut
	rs.res.PhaseLog = phaseLog
	if perturb != 0 {
		rs.tickR.Perturb(perturb)
		rs.latR.Perturb(perturb)
		rs.clocks.Perturb(perturb)
		if rs.adv != nil {
			rs.adv.Perturb(perturb)
		}
	}
	return nil
}
