package metrics

import (
	"reflect"
	"testing"

	"plurality/internal/opinion"
)

// points is a small run: the plurality opinion climbs from 0.6 to 1.
func recorderPoints() []Point {
	return []Point{
		{Time: 0, TopFrac: 0.6, PluralityFrac: 0.6, Bias: 1.5},
		{Time: 1, TopFrac: 0.8, PluralityFrac: 0.8, Bias: 4},
		{Time: 2, TopFrac: 0.95, PluralityFrac: 0.95, Bias: 19},
		{Time: 3, TopFrac: 1, PluralityFrac: 1, Bias: 100},
	}
}

func TestRecorderDiscardKeepsOutcome(t *testing.T) {
	final := opinion.Counts{10, 0}
	keep := NewRecorder(0.1, false, nil)
	drop := NewRecorder(0.1, true, nil)
	for _, p := range recorderPoints() {
		keep.Append(p)
		drop.Append(p)
	}
	if drop.Trajectory() != nil {
		t.Error("discarding recorder accumulated points")
	}
	if !reflect.DeepEqual(keep.Trajectory(), Trajectory(recorderPoints())) {
		t.Error("accumulated trajectory differs from the appended points")
	}
	if !reflect.DeepEqual(keep.Outcome(final, 10, 0), drop.Outcome(final, 10, 0)) {
		t.Error("discarding changed the outcome")
	}
	if last, ok := drop.Last(); !ok || last.Time != 3 {
		t.Errorf("Last() = %v, %v", last, ok)
	}
}

func TestRecorderSinkSeesEveryPoint(t *testing.T) {
	var seen []Point
	rec := NewRecorder(0.1, true, func(p Point) { seen = append(seen, p) })
	for _, p := range recorderPoints() {
		rec.Append(p)
	}
	if !reflect.DeepEqual(seen, recorderPoints()) {
		t.Errorf("sink saw %v", seen)
	}
}

func TestRecorderNoConsensus(t *testing.T) {
	rec := NewRecorder(0.5, false, nil)
	rec.Append(Point{Time: 0, TopFrac: 0.6, PluralityFrac: 0.6})
	out := rec.Outcome(opinion.Counts{6, 4}, 10, 0)
	if out.FullConsensus {
		t.Error("full consensus without monochromatic counts")
	}
	if !out.EpsReached || out.EpsTime != 0 {
		t.Errorf("eps outcome %+v", out)
	}
}

func TestRecorderOutOfOrderPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic on out-of-order point")
		}
	}()
	rec := NewRecorder(0.1, true, nil)
	rec.Append(Point{Time: 2})
	rec.Append(Point{Time: 1})
}
