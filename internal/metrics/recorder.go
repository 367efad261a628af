package metrics

import (
	"fmt"

	"plurality/internal/opinion"
)

// Recorder consumes the snapshot stream of one protocol run. It tracks the
// first hitting times of ε-convergence and full consensus incrementally, so
// a run can evaluate its Outcome without retaining the whole trajectory:
// with discard set the recorder keeps O(1) state per run, which is what
// makes million-node runs with fine recording resolution affordable. An
// optional sink receives every point as it is recorded, enabling streaming
// consumers (live plots, on-line aggregation) regardless of discard.
type Recorder struct {
	eps     float64
	discard bool
	sink    func(Point)

	traj Trajectory
	last Point
	has  bool

	consHit  bool
	consTime float64
	epsHit   bool
	epsTime  float64
}

// NewRecorder returns a recorder evaluating ε-convergence against eps.
// discard suppresses trajectory accumulation; sink, when non-nil, receives
// every appended point in order.
func NewRecorder(eps float64, discard bool, sink func(Point)) *Recorder {
	return &Recorder{eps: eps, discard: discard, sink: sink}
}

// Append records one snapshot. Points must arrive in non-decreasing time
// order, as in Trajectory.Append.
func (r *Recorder) Append(p Point) {
	if r.has && p.Time < r.last.Time {
		panic(fmt.Sprintf("metrics: out-of-order trajectory point at %v after %v",
			p.Time, r.last.Time))
	}
	if !r.consHit && p.TopFrac >= 1 {
		r.consHit = true
		r.consTime = p.Time
	}
	if !r.epsHit && p.PluralityFrac >= 1-r.eps {
		r.epsHit = true
		r.epsTime = p.Time
	}
	r.last = p
	r.has = true
	if !r.discard {
		r.traj = append(r.traj, p)
	}
	if r.sink != nil {
		r.sink(p)
	}
}

// Last returns the most recently appended point; ok is false before the
// first Append. It is tracked even when the trajectory is discarded.
func (r *Recorder) Last() (Point, bool) { return r.last, r.has }

// Trajectory returns the accumulated snapshots (nil when discarding).
func (r *Recorder) Trajectory() Trajectory { return r.traj }

// Outcome summarizes the recorded run from the final counts of a
// population of population nodes (see SnapshotCounts): full consensus is
// one count equal to the population, its time is the first recorded
// monochromatic snapshot (falling back to the last recorded time), and
// ε-convergence is the first snapshot with a 1−ε plurality fraction.
func (r *Recorder) Outcome(final opinion.Counts, population int, initialPlurality opinion.Opinion) Outcome {
	winner, _ := final.TopTwo()
	out := Outcome{
		Winner:       opinion.Opinion(winner),
		PluralityWon: opinion.Opinion(winner) == initialPlurality,
		Eps:          r.eps,
	}
	if final.Unanimous(population) {
		out.FullConsensus = true
		if r.consHit {
			out.ConsensusTime = r.consTime
		} else if r.has {
			out.ConsensusTime = r.last.Time
		}
	}
	if r.epsHit {
		out.EpsReached = true
		out.EpsTime = r.epsTime
	}
	return out
}
