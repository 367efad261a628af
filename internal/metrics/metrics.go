// Package metrics defines the convergence criteria and trajectory recording
// shared by every protocol in the repository. The paper's statements come in
// two strengths — ε-convergence (all but an ε fraction hold the plurality
// opinion, Theorem 13) and full consensus — and the experiments need the
// first hitting times of both, plus enough of the trajectory to plot
// generation growth and bias evolution.
package metrics

import (
	"fmt"

	"plurality/internal/opinion"
)

// Point is one sampled snapshot of a running protocol.
type Point struct {
	// Time is virtual time: rounds for synchronous protocols, continuous
	// simulator time (in time steps) for asynchronous ones.
	Time float64
	// TopFrac is the fraction of the population holding the currently
	// dominant opinion. The population is the survivors (every node in an
	// honest run), undecided nodes included, so TopFrac is 1 exactly when
	// every survivor holds one opinion.
	TopFrac float64
	// PluralityFrac is the fraction of the population holding the
	// *initial* plurality opinion (the one that is supposed to win).
	PluralityFrac float64
	// Bias is the current multiplicative bias between the two dominant
	// opinions.
	Bias float64
	// MaxGen is the highest generation present (0 for baselines).
	MaxGen int
	// MaxGenFrac is the fraction of nodes in MaxGen (0 for baselines).
	MaxGenFrac float64
}

// Trajectory is a time-ordered sequence of snapshots.
type Trajectory []Point

// Append adds a snapshot; points must be appended in non-decreasing time
// order, which is asserted because an out-of-order trajectory invalidates
// hitting-time queries.
func (tr *Trajectory) Append(p Point) {
	if n := len(*tr); n > 0 && p.Time < (*tr)[n-1].Time {
		panic(fmt.Sprintf("metrics: out-of-order trajectory point at %v after %v",
			p.Time, (*tr)[n-1].Time))
	}
	*tr = append(*tr, p)
}

// Last returns the final snapshot; ok is false when the trajectory is empty.
func (tr Trajectory) Last() (Point, bool) {
	if len(tr) == 0 {
		return Point{}, false
	}
	return tr[len(tr)-1], true
}

// Outcome summarizes a completed protocol run.
type Outcome struct {
	// Winner is the opinion held by the plurality of nodes at termination.
	Winner opinion.Opinion
	// PluralityWon reports whether Winner equals the initial plurality
	// opinion — the correctness criterion of plurality consensus.
	PluralityWon bool
	// FullConsensus reports whether every survivor held Winner at
	// termination (every node in an honest run; an undecided node never
	// agrees).
	FullConsensus bool
	// ConsensusTime is the first recorded time of full consensus (valid
	// only when FullConsensus is true).
	ConsensusTime float64
	// EpsReached reports whether ε-convergence toward the initial
	// plurality opinion was observed, and EpsTime its first hitting time.
	EpsReached bool
	EpsTime    float64
	// Eps is the ε the run was evaluated against.
	Eps float64
}

// String renders a compact human-readable outcome line.
func (o Outcome) String() string {
	status := "plurality LOST"
	if o.PluralityWon {
		status = "plurality won"
	}
	full := "no full consensus"
	if o.FullConsensus {
		full = fmt.Sprintf("full consensus at t=%.3g", o.ConsensusTime)
	}
	eps := "ε-convergence not reached"
	if o.EpsReached {
		eps = fmt.Sprintf("ε=%.3g-convergence at t=%.3g", o.Eps, o.EpsTime)
	}
	return fmt.Sprintf("winner=%d (%s), %s, %s", o.Winner, status, eps, full)
}

// SnapshotCounts builds the Point at time t of a population of population
// nodes whose opinions tally to c, with initialPlurality the opinion that
// is supposed to win. The population is the run's survivors, all n nodes
// in an honest run; an undecided node belongs to it but holds no opinion,
// so it counts in the fractions' denominator and in no count of c.
// Generation fields are left zero; generation-aware protocols fill them in
// afterwards.
func SnapshotCounts(t float64, c opinion.Counts, population int, initialPlurality opinion.Opinion) Point {
	top, _ := c.TopTwo()
	p := Point{Time: t, Bias: c.Bias()}
	if population > 0 {
		p.TopFrac = float64(c[top]) / float64(population)
		if int(initialPlurality) >= 0 && int(initialPlurality) < len(c) {
			p.PluralityFrac = float64(c[initialPlurality]) / float64(population)
		}
	}
	return p
}
