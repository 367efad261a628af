package leader

import (
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
// version drift detectable. C1 is the latency law's one estimate, which a
// restore looks up like a fresh run.

// layout runs the run's mutable state through c, in blob order.
func (rs *runState) layout(c *snap.Codec) {
	rs.Sim.Layout(c)
	rs.Clocks.Layout(c)
	c.RNG(rs.tickR)
	c.RNG(rs.LatR)
	opinion.SliceLayout(c, &rs.Cols, rs.cfg.K)
	snap.Words(c, &rs.gens)
	c.Bools(&rs.locked)
	snap.Words(c, &rs.seenG)
	c.Bools(&rs.seenP)
	opinion.CountsLayout(c, &rs.Counts, rs.cfg.K)
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
	c.Bool(&rs.Mono)
	c.F64(&rs.MonoAt)
	c.U64(&rs.totalTicks)
	rs.Crash.Layout(c)
	c.U64(&rs.res.TotalLeaderMessages)
	c.Bool(&rs.TimedOut)
	snap.Slice(c, &rs.res.PhaseLog, 24, func(c *snap.Codec, pe *PhaseEvent) {
		c.F64(&pe.Time)
		c.Int(&pe.Gen)
		phase := int(pe.Phase)
		c.Int(&phase)
		pe.Phase = Phase(phase)
	})
	rs.Rec.Layout(c, rs.Sim.Now())
	// Adversarial runs append the adversary generator/counters and the
	// payload arena; the suffix's presence is a pure function of the Config,
	// so capture and restore agree on it and honest blobs decode unchanged.
	if rs.Adv != nil {
		rs.Adv.Layout(c)
		rs.Payload.Layout(c)
	}
}

// capture serializes the run's mutable state.
func (rs *runState) capture() []byte {
	c := snap.NewEncoder()
	rs.layout(c)
	return c.Bytes()
}

// check rejects a decoded state whose sizes, generations or tallies the
// run could never have reached, so the handlers, which index by them,
// cannot panic; the run frame checks the opinions and its own event kinds.
func (rs *runState) check() error {
	n := rs.cfg.N
	if len(rs.gens) != n || len(rs.locked) != n || len(rs.seenG) != n || len(rs.seenP) != n {
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
	return nil
}

// validEvent reports whether a restored pending event of the engine's own
// kinds is one the run could have scheduled.
func (rs *runState) validEvent(ev sim.Event) bool {
	switch ev.Kind {
	case evSignal:
		return true
	case evComplete:
		return rs.Nodes(ev.Node, ev.A, ev.B)
	}
	return false
}
