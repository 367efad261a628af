package plurality

import (
	"fmt"

	"plurality/internal/metrics"
	"plurality/internal/opinion"
)

// TrajectoryPoint is one recorded snapshot of a run. Time is measured in
// synchronous rounds for the round-based protocols ("sync" and the baseline
// rules), and in virtual time steps (one expected Poisson tick per node per
// step) for the asynchronous ones. TopFrac and PluralityFrac are the
// fractions of the survivors (every node unless an adversary crashed some)
// holding the dominant and the initially dominant opinion; an undecided
// node counts in the denominator and holds neither, so TopFrac is 1
// exactly when every survivor agrees.
type TrajectoryPoint struct {
	Time          float64
	TopFrac       float64
	PluralityFrac float64
	Bias          float64
	MaxGen        int
}

// Result is the outcome of one protocol run.
type Result struct {
	// Winner is the opinion held by the most nodes at termination.
	Winner int
	// PluralityWon reports whether Winner is the initially dominant
	// opinion — the correctness criterion of plurality consensus.
	PluralityWon bool
	// FullConsensus reports whether every survivor (every node unless an
	// adversary crashed some) held Winner at termination, and ConsensusTime
	// when that first happened. An undecided node never agrees.
	FullConsensus bool
	ConsensusTime float64
	// EpsReached reports whether a 1−Eps fraction of the survivors held the
	// initial plurality opinion at some recorded time, and EpsTime the
	// first such time (Theorem 13's ε-convergence).
	EpsReached bool
	EpsTime    float64
	Eps        float64
	// Duration is the total virtual time (or rounds) the run executed.
	Duration float64
	// TimedOut reports that the run hit its horizon before full consensus.
	TimedOut bool
	// FinalCounts are the survivors' per-opinion supporter counts at
	// termination; undecided nodes hold no opinion and are not counted.
	FinalCounts []int
	// Trajectory holds the recorded snapshots.
	Trajectory []TrajectoryPoint
	// Stats carries protocol-specific measurements, e.g. "c1" (steps per
	// time unit), "events" (simulator events), "clustering_time",
	// "participating_frac", "gstar", "generations".
	Stats map[string]float64
	// Snapshot holds the mid-run state capture requested via
	// Spec.Checkpoint; nil when none was requested or the run ended before
	// reaching SnapshotAt. It is excluded from JSON output — snapshots are
	// exported explicitly through Snapshot.Encode.
	Snapshot *Snapshot `json:"-"`
}

// String renders a one-line summary.
func (r *Result) String() string {
	status := "plurality LOST"
	if r.PluralityWon {
		status = "plurality won"
	}
	if r.FullConsensus {
		return fmt.Sprintf("winner=%d (%s), consensus at t=%.4g", r.Winner, status, r.ConsensusTime)
	}
	return fmt.Sprintf("winner=%d (%s), no full consensus by t=%.4g", r.Winner, status, r.Duration)
}

// convertResult translates internal outcome/trajectory types to the public
// Result.
func convertResult(out metrics.Outcome, tr metrics.Trajectory, final opinion.Counts,
	duration float64, timedOut bool, extra map[string]float64) *Result {
	res := &Result{
		Winner:        int(out.Winner),
		PluralityWon:  out.PluralityWon,
		FullConsensus: out.FullConsensus,
		ConsensusTime: out.ConsensusTime,
		EpsReached:    out.EpsReached,
		EpsTime:       out.EpsTime,
		Eps:           out.Eps,
		Duration:      duration,
		TimedOut:      timedOut,
		FinalCounts:   append([]int(nil), final...),
		Stats:         extra,
	}
	if len(tr) > 0 {
		res.Trajectory = make([]TrajectoryPoint, len(tr))
		for i, p := range tr {
			res.Trajectory[i] = publicPoint(p)
		}
	}
	return res
}

// publicPoint converts an internal snapshot to the public trajectory type.
func publicPoint(p metrics.Point) TrajectoryPoint {
	return TrajectoryPoint{
		Time:          p.Time,
		TopFrac:       p.TopFrac,
		PluralityFrac: p.PluralityFrac,
		Bias:          p.Bias,
		MaxGen:        p.MaxGen,
	}
}

// toInternalAssignment validates and converts a public assignment.
func toInternalAssignment(a []int, n, k int) ([]opinion.Opinion, error) {
	if a == nil {
		return nil, nil
	}
	if len(a) != n {
		return nil, fmt.Errorf("plurality: assignment length %d != N %d", len(a), n)
	}
	out := make([]opinion.Opinion, len(a))
	for i, v := range a {
		if v < 0 || v >= k {
			return nil, fmt.Errorf("plurality: assignment[%d] = %d outside [0, %d)", i, v, k)
		}
		out[i] = opinion.Opinion(v)
	}
	return out, nil
}
