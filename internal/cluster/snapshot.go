package cluster

import (
	"fmt"

	"plurality/internal/snap"
)

// Layout runs a formation outcome through c in canonical form, for the
// decentralized engine's snapshots: a resumed run decodes the finished
// clustering instead of replaying formation. Map-valued fields are iterated
// in Leaders order, so encoding the same clustering twice yields identical
// bytes. The interaction graph (Topo) is not serialized — it is a
// deterministic function of the run configuration — so decode into a zero
// Clustering and attach Topo afterwards. A decoder checks every leader id
// and every LeaderOf entry against N.
func (cl *Clustering) Layout(c *snap.Codec) {
	c.Int(&cl.N)
	c.Int(&cl.TargetSize)
	snap.Words(c, &cl.LeaderOf)
	snap.Words(c, &cl.Leaders)
	nl := len(cl.Leaders)
	c.Len32(&nl, 18)
	if c.Decoding() {
		if c.Err() != nil || !cl.validIDs(c, nl) {
			return
		}
		cl.Size = make(map[int]int, nl)
		cl.InConsensusMode = make(map[int]bool, nl)
		cl.SwitchTime = make(map[int]float64, nl)
	}
	for _, l := range cl.Leaders {
		size, cons := cl.Size[l], cl.InConsensusMode[l]
		st, ok := cl.SwitchTime[l]
		c.Int(&size)
		c.Bool(&cons)
		c.Bool(&ok)
		c.F64(&st)
		if c.Decoding() {
			cl.Size[l], cl.InConsensusMode[l] = size, cons
			if ok {
				cl.SwitchTime[l] = st
			}
		}
	}
	c.F64(&cl.FirstSwitch)
	c.F64(&cl.LastSwitch)
	snap.Slice(c, &cl.Coverage, 24, func(c *snap.Codec, p *CoveragePoint) {
		c.F64(&p.Time)
		c.F64(&p.ClusteredFrac)
		c.F64(&p.BigClusterFrac)
	})
	c.F64(&cl.EndTime)
	c.Bool(&cl.TimedOut)
}

// validIDs checks a decoded clustering's ids: nl leader records, N LeaderOf
// entries, each -1 (unclustered) or a leader, and leaders inside [0, N).
func (cl *Clustering) validIDs(c *snap.Codec, nl int) bool {
	c.Require(nl == len(cl.Leaders), "%d leader records for %d leaders", nl, len(cl.Leaders))
	c.Require(len(cl.LeaderOf) == cl.N, "LeaderOf length %d != N %d", len(cl.LeaderOf), cl.N)
	if c.Err() != nil {
		return false
	}
	leader := make([]bool, cl.N)
	for _, l := range cl.Leaders {
		if l < 0 || l >= cl.N {
			c.Fail(fmt.Errorf("%w: leader id %d outside [0, %d)", snap.ErrCorrupt, l, cl.N))
			return false
		}
		leader[l] = true
	}
	for v, l := range cl.LeaderOf {
		if l != -1 && (l < 0 || int(l) >= cl.N || !leader[l]) {
			c.Fail(fmt.Errorf("%w: node %d's leader %d is not a leader", snap.ErrCorrupt, v, l))
			return false
		}
	}
	return true
}
