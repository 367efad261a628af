package noleader

import (
	"fmt"

	"plurality/internal/opinion"
	"plurality/internal/sim"
	"plurality/internal/snap"
)

// This file implements the decentralized engine's checkpoint hooks. A
// snapshot embeds the finished clustering (Clustering.Layout) followed by
// every mutable word of the consensus phase, so a restored run skips
// formation entirely — the warm-start property that makes resumed
// long-horizon runs O(n) instead of O(clustering replay). Config-derived
// constants (C1, G*, thresholds, leader slot order) are recomputed at
// restore from the same seed.

// layout runs the consensus phase's mutable state through c, in blob order
// after the embedded clustering.
func (rs *consensusState) layout(c *snap.Codec) {
	rs.Sim.Layout(c)
	rs.Clocks.Layout(c)
	c.RNG(rs.smp)
	c.RNG(rs.LatR)
	opinion.SliceLayout(c, &rs.Cols, rs.cfg.K)
	snap.Words(c, &rs.gens)
	c.Bools(&rs.finished)
	c.Bools(&rs.locked)
	snap.Words(c, &rs.tmpGen)
	snap.Words(c, &rs.tmpState)
	opinion.CountsLayout(c, &rs.Counts, rs.cfg.K)
	c.Int(&rs.maxGen)
	snap.Words(c, &rs.lGen)
	snap.Words(c, &rs.lState)
	snap.Words(c, &rs.lT)
	snap.Words(c, &rs.lGenSize)
	snap.Words(c, &rs.loadBucket)
	snap.Words(c, &rs.loadCount)
	c.U64(&rs.peakLoad)
	c.Bool(&rs.Mono)
	c.F64(&rs.MonoAt)
	rs.phaseLayout(c)
	c.U64(&rs.res.TotalLeaderMessages)
	c.Bool(&rs.TimedOut)
	rs.Rec.Layout(c, rs.Sim.Now())
	// Adversarial runs append the crash flags, the adversary state and the
	// delayed-message arena; the suffix's presence is a pure function of
	// the Config, so capture and restore agree on it and honest blobs
	// decode unchanged.
	if rs.Adv != nil {
		rs.Crash.Layout(c)
		rs.Adv.Layout(c)
		rs.Payload.Layout(c)
	}
}

// phaseLayout runs the Figure 2 phase marks through c, flattened in
// generation order (the order of the final PhaseSpans) for a canonical
// encoding.
func (rs *consensusState) phaseLayout(c *snap.Codec) {
	var marks []GenPhases
	for g := 1; g <= rs.gStar+1; g++ {
		if ph, ok := rs.phase[g]; ok {
			marks = append(marks, *ph)
		}
	}
	snap.Slice(c, &marks, 56, func(c *snap.Codec, ph *GenPhases) {
		c.Int(&ph.Gen)
		c.F64(&ph.FirstTwoChoices)
		c.F64(&ph.LastTwoChoices)
		c.F64(&ph.FirstSleeping)
		c.F64(&ph.LastSleeping)
		c.F64(&ph.FirstPropagation)
		c.F64(&ph.LastPropagation)
	})
	if !c.Decoding() || c.Err() != nil {
		return
	}
	rs.phase = make(map[int]*GenPhases, len(marks))
	for i := range marks {
		ph := &marks[i]
		if ph.Gen < 1 || ph.Gen > rs.gStar+1 {
			c.Fail(fmt.Errorf("%w: phase mark for generation %d outside [1, %d]", snap.ErrCorrupt, ph.Gen, rs.gStar+1))
			return
		}
		rs.phase[ph.Gen] = ph
	}
}

// capture serializes the clustering and the consensus phase's mutable
// state.
func (rs *consensusState) capture() []byte {
	c := snap.NewEncoder()
	rs.cl.Layout(c)
	rs.layout(c)
	return c.Bytes()
}

// check rejects a decoded state whose sizes, generations or leader
// states the run could never have reached, so the handlers, which index
// by them, cannot panic; the run frame checks the opinions and its own
// event kinds.
func (rs *consensusState) check() error {
	n := rs.cfg.N
	if len(rs.gens) != n || len(rs.finished) != n || len(rs.locked) != n ||
		len(rs.tmpGen) != n || len(rs.tmpState) != n {
		return fmt.Errorf("node-state length mismatch (blob for a different N?)")
	}
	nl := len(rs.lCard)
	if len(rs.lGen) != nl || len(rs.lState) != nl || len(rs.lT) != nl || len(rs.lGenSize) != nl ||
		len(rs.loadBucket) != nl || len(rs.loadCount) != nl {
		return fmt.Errorf("leader-state length mismatch (blob for a different clustering?)")
	}
	for _, g := range rs.gens {
		if g < 0 || int(g) > rs.gStar {
			return fmt.Errorf("node generation %d outside [0, %d]", g, rs.gStar)
		}
	}
	for li, g := range rs.lGen {
		if g < 1 || int(g) > rs.gStar || !validState(int32(rs.lState[li])) {
			return fmt.Errorf("leader state (%d, %d) outside [1, %d]×{1, 2, 3}", g, rs.lState[li], rs.gStar)
		}
	}
	return nil
}

// validEvent reports whether a restored pending event of the engine's own
// kinds is one the run could have scheduled.
func (rs *consensusState) validEvent(ev sim.Event) bool {
	switch ev.Kind {
	case evSignal:
		return rs.Nodes(ev.Node) && ev.A >= 0 && int(ev.A) <= rs.gStar && validState(ev.B)
	case evComplete:
		return rs.Nodes(ev.Node, ev.A, ev.B, ev.C)
	}
	return false
}

// validState reports whether s names a leader state.
func validState(s int32) bool {
	return s >= int32(StateTwoChoices) && s <= int32(StatePropagation)
}
