package leader

import (
	"context"
	"fmt"
	"slices"

	"plurality/internal/opinion"
	"plurality/internal/sim"
	"plurality/internal/snap"
)

// This file implements the single-leader engine's checkpoint hooks. A
// capture serializes every mutable word of a run — the kernel event heap,
// the superposed Poisson clock, the sampling/latency RNG streams, the dense
// node state, the leader automaton, the congestion counters, the partial
// result and the trajectory recorder — while everything derivable from the
// Config (thresholds, the planted assignment, the victim set, the topology)
// is recomputed at restore from the same seed, keeping blobs small and
// version drift detectable.

// runSim drives the kernel through the shared checkpoint barrier
// (sim.RunCheckpointed): a run that stops before reaching Ckpt.At takes no
// snapshot.
func (rs *runState) runSim(ctx context.Context) error {
	return sim.RunCheckpointed(ctx, rs.sm, rs.cfg.Ckpt, rs.capture)
}

// layout runs the run's mutable state through c, in blob order.
func (rs *runState) layout(c *snap.Codec) {
	rs.sm.Layout(c)
	rs.clocks.Layout(c)
	c.RNG(rs.tickR)
	c.RNG(rs.latR)
	opinion.SliceLayout(c, &rs.cols, rs.cfg.K)
	snap.Words(c, &rs.gens)
	c.Bools(&rs.locked)
	snap.Words(c, &rs.seenG)
	c.Bools(&rs.seenP)
	opinion.CountsLayout(c, &rs.colorCount, rs.cfg.K)
	snap.Words(c, &rs.genCount)
	c.Int(&rs.maxGen)
	c.Int(&rs.leaderGen)
	c.Bool(&rs.leaderProp)
	c.Int(&rs.leaderT)
	c.Int(&rs.leaderSize)
	c.Bools(&rs.propSeen)
	c.I32(&rs.loadBucket)
	c.U64(&rs.loadCount)
	c.U64(&rs.peakLoad)
	c.Bool(&rs.mono)
	c.F64(&rs.monoAt)
	c.U64(&rs.totalTicks)
	rs.crash.Layout(c)
	c.U64(&rs.res.TotalLeaderMessages)
	c.Bool(&rs.res.TimedOut)
	snap.Slice(c, &rs.res.PhaseLog, 24, func(c *snap.Codec, pe *PhaseEvent) {
		c.F64(&pe.Time)
		c.Int(&pe.Gen)
		phase := int(pe.Phase)
		c.Int(&phase)
		pe.Phase = Phase(phase)
	})
	rs.rec.Layout(c, rs.sm.Now())
	// Adversarial runs append the adversary generator/counters and the
	// payload arena; the suffix's presence is a pure function of the Config,
	// so capture and restore agree on it and honest blobs decode unchanged.
	if rs.adv != nil {
		rs.adv.Layout(c)
		rs.payload.Layout(c)
	}
}

// capture serializes the run's mutable state.
func (rs *runState) capture() []byte {
	c := snap.NewEncoder()
	rs.layout(c)
	return c.Bytes()
}

// restore overwrites the run's mutable state from a captured payload,
// checks that it is a state the run could have reached, and applies the
// divergence perturbation. It must run after the deterministic setup
// (which allocates every slice at its configured size) and instead of the
// initial event scheduling.
func (rs *runState) restore(state []byte, perturb uint64) error {
	c := snap.NewDecoder(state)
	rs.layout(c)
	if err := c.Finish(); err != nil {
		return fmt.Errorf("leader: state: %w", err)
	}
	if err := rs.check(); err != nil {
		return fmt.Errorf("leader: %w: %s", snap.ErrCorrupt, err)
	}
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

// check rejects a decoded state whose sizes, ids or tallies the run could
// never have reached, so the handlers, which index by them, cannot panic.
func (rs *runState) check() error {
	n := rs.cfg.N
	if len(rs.cols) != n || len(rs.gens) != n || len(rs.locked) != n || len(rs.seenG) != n ||
		len(rs.seenP) != n {
		return fmt.Errorf("node-state length mismatch (blob for a different N?)")
	}
	if len(rs.genCount) != rs.gStar+1 || len(rs.propSeen) != rs.gStar+2 {
		return fmt.Errorf("generation-state length mismatch (blob for a different G*?)")
	}
	if rs.maxGen < 0 || rs.maxGen > rs.gStar || rs.leaderGen < 1 || rs.leaderGen > rs.gStar {
		return fmt.Errorf("generation indices out of range")
	}
	tally := make([]int, rs.gStar+1)
	for _, g := range rs.gens {
		if g < 0 || int(g) > rs.gStar {
			return fmt.Errorf("node generation %d outside [0, %d]", g, rs.gStar)
		}
		tally[g]++
	}
	if !slices.Equal(tally, rs.genCount) {
		return fmt.Errorf("generation counts disagree with node generations")
	}
	if !rs.colorCount.Tallies(rs.cols, rs.crash.Down) {
		return fmt.Errorf("color counts disagree with survivor opinions")
	}
	inN := func(v int32) bool { return v >= 0 && int(v) < n }
	valid := func(ev sim.Event) bool {
		switch ev.Kind {
		case evTick:
			return inN(ev.Node)
		case evComplete:
			return inN(ev.Node) && inN(ev.A) && inN(ev.B)
		case evSignal, evRecord, evDeadline:
			return true
		case evCrash:
			return rs.adv != nil
		case evAdvDeliver:
			return rs.payload.Holds(ev.A)
		}
		return false
	}
	if !sim.ValidPending(rs.sm, rs.payload, valid) {
		return fmt.Errorf("pending event outside the run's kinds or node ids")
	}
	return nil
}
