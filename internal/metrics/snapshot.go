package metrics

import "plurality/internal/snap"

// Layout runs the recorder's mutable state — trajectory, last point and the
// incremental hitting times of full consensus and ε-convergence — through
// c, in the canonical form shared by every engine checkpoint. The eps
// threshold, discard flag and sink are configuration, not state: a
// restored recorder is constructed with them and then decoded, after which
// its Outcome and Trajectory are indistinguishable from an uninterrupted
// recorder's. The sink is not replayed: an observer attached to a resumed
// run sees only the points recorded after the restore. An empty restored
// trajectory stays nil, so a resumed discarding run keeps its O(1)
// footprint. now is the resume point; a decoder rejects a last point after
// it, which the next Append would take for time running backwards.
func (r *Recorder) Layout(c *snap.Codec, now float64) {
	snap.Slice(c, &r.traj, 48, pointLayout)
	pointLayout(c, &r.last)
	c.Bool(&r.has)
	c.Bool(&r.consHit)
	c.F64(&r.consTime)
	c.Bool(&r.epsHit)
	c.F64(&r.epsTime)
	c.Require(!r.has || r.last.Time <= now, "last recorded point at %v after resume point %v", r.last.Time, now)
}

func pointLayout(c *snap.Codec, p *Point) {
	c.F64(&p.Time)
	c.F64(&p.TopFrac)
	c.F64(&p.PluralityFrac)
	c.F64(&p.Bias)
	c.Int(&p.MaxGen)
	c.F64(&p.MaxGenFrac)
}
