package metrics

import (
	"testing"

	"plurality/internal/opinion"
)

func TestTrajectoryAppendOrdered(t *testing.T) {
	var tr Trajectory
	tr.Append(Point{Time: 1})
	tr.Append(Point{Time: 1})
	tr.Append(Point{Time: 2})
	if len(tr) != 3 {
		t.Fatalf("len = %d", len(tr))
	}
}

func TestTrajectoryAppendOutOfOrderPanics(t *testing.T) {
	var tr Trajectory
	tr.Append(Point{Time: 5})
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-order append did not panic")
		}
	}()
	tr.Append(Point{Time: 4})
}

func TestLast(t *testing.T) {
	var tr Trajectory
	if _, ok := tr.Last(); ok {
		t.Fatal("empty trajectory has a last point")
	}
	tr.Append(Point{Time: 7})
	p, ok := tr.Last()
	if !ok || p.Time != 7 {
		t.Fatalf("Last = %v, %v", p, ok)
	}
}

// outcomeOf feeds pts to a recorder evaluating ε-convergence against eps
// and returns its outcome over the final counts of a population.
func outcomeOf(pts []Point, final opinion.Counts, population int, eps float64) Outcome {
	rec := NewRecorder(eps, true, nil)
	for _, p := range pts {
		rec.Append(p)
	}
	return rec.Outcome(final, population, 0)
}

func TestRecorderFullConsensus(t *testing.T) {
	out := outcomeOf([]Point{
		{Time: 0, TopFrac: 0.6, PluralityFrac: 0.6},
		{Time: 5, TopFrac: 0.99, PluralityFrac: 0.99},
		{Time: 9, TopFrac: 1, PluralityFrac: 1},
	}, opinion.Counts{100, 0, 0}, 100, 0.01)
	if !out.PluralityWon {
		t.Error("plurality should have won")
	}
	if !out.FullConsensus || out.ConsensusTime != 9 {
		t.Errorf("consensus: %v at %v", out.FullConsensus, out.ConsensusTime)
	}
	if !out.EpsReached || out.EpsTime != 5 {
		t.Errorf("eps: %v at %v", out.EpsReached, out.EpsTime)
	}
}

func TestRecorderPluralityLost(t *testing.T) {
	out := outcomeOf([]Point{{Time: 0, TopFrac: 1, PluralityFrac: 0}}, opinion.Counts{0, 50}, 50, 0.1)
	if out.PluralityWon {
		t.Error("plurality marked as won although opinion 1 prevailed")
	}
	if out.Winner != 1 {
		t.Errorf("winner = %d", out.Winner)
	}
	if !out.FullConsensus {
		t.Error("opinion 1 holds all nodes; that is full consensus")
	}
}

// TestRecorderUndecidedIsNoConsensus pins the population: undecided nodes
// hold no opinion, so decided nodes that all agree are no full consensus.
func TestRecorderUndecidedIsNoConsensus(t *testing.T) {
	out := outcomeOf([]Point{{Time: 0, TopFrac: 0.6, PluralityFrac: 0.6}}, opinion.Counts{60, 0}, 100, 0.01)
	if out.FullConsensus {
		t.Error("40 undecided nodes reported as full consensus")
	}
	if out.EpsReached {
		t.Error("eps-convergence not expected")
	}
	if out.String() == "" {
		t.Error("empty String()")
	}
}

func TestSnapshot(t *testing.T) {
	p := SnapshotCounts(2.5, opinion.Counts{3, 1}, 4, 0)
	if p.Time != 2.5 {
		t.Errorf("Time = %v", p.Time)
	}
	if p.TopFrac != 0.75 || p.PluralityFrac != 0.75 {
		t.Errorf("fracs = %v/%v", p.TopFrac, p.PluralityFrac)
	}
	if p.Bias != 3 {
		t.Errorf("Bias = %v", p.Bias)
	}
	// An undecided node is in the population's denominator.
	if p := SnapshotCounts(0, opinion.Counts{6, 0}, 8, 0); p.TopFrac != 0.75 || p.PluralityFrac != 0.75 {
		t.Errorf("fracs = %v/%v, want 0.75 with 2 of 8 nodes undecided", p.TopFrac, p.PluralityFrac)
	}
}

func TestSnapshotTracksPluralityNotTop(t *testing.T) {
	p := SnapshotCounts(0, opinion.Counts{1, 3}, 4, 0)
	if p.TopFrac != 0.75 {
		t.Errorf("TopFrac = %v", p.TopFrac)
	}
	if p.PluralityFrac != 0.25 {
		t.Errorf("PluralityFrac = %v, want fraction of opinion 0", p.PluralityFrac)
	}
}
