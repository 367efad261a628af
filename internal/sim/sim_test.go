package sim

import (
	"context"
	"math"
	"sort"
	"testing"
	"testing/quick"

	"plurality/internal/xrand"
)

// popRecorder installs a handler on s that records every popped event and
// the virtual time it ran at, then calls next (if non-nil) to react.
func popRecorder(s *Simulator, next func(ev Event)) (nodes *[]int32, times *[]float64) {
	nodes, times = new([]int32), new([]float64)
	s.SetHandler(handlerFunc(func(ev Event) {
		*nodes = append(*nodes, ev.Node)
		*times = append(*times, s.Now())
		if next != nil {
			next(ev)
		}
	}))
	return nodes, times
}

func TestEventOrdering(t *testing.T) {
	s := New()
	got, _ := popRecorder(s, nil)
	s.Schedule(3, Event{Node: 3})
	s.Schedule(1, Event{Node: 1})
	s.Schedule(2, Event{Node: 2})
	s.Run()
	want := []int32{1, 2, 3}
	for i := range want {
		if (*got)[i] != want[i] {
			t.Fatalf("order %v, want %v", *got, want)
		}
	}
}

func TestTieBreakFIFO(t *testing.T) {
	s := New()
	got, _ := popRecorder(s, nil)
	for i := 0; i < 10; i++ {
		s.Schedule(5, Event{Kind: int32(i % 3), Node: int32(i)})
	}
	s.Run()
	if len(*got) != 10 {
		t.Fatalf("popped %d events, want 10", len(*got))
	}
	for i, v := range *got {
		if v != int32(i) {
			t.Fatalf("equal-time events reordered: %v", *got)
		}
	}
}

func TestNowAdvances(t *testing.T) {
	s := New()
	_, times := popRecorder(s, nil)
	s.Schedule(1.5, Event{})
	s.Schedule(4.25, Event{})
	s.Run()
	if (*times)[0] != 1.5 || (*times)[1] != 4.25 {
		t.Fatalf("Now() inside handlers: %v", *times)
	}
}

func TestAfterRelative(t *testing.T) {
	s := New()
	var inner float64
	s.SetHandler(handlerFunc(func(ev Event) {
		if ev.Kind == 0 {
			s.ScheduleAfter(3, Event{Kind: 1})
			return
		}
		inner = s.Now()
	}))
	s.Schedule(2, Event{Kind: 0})
	s.Run()
	if inner != 5 {
		t.Fatalf("ScheduleAfter ran at %v, want 5", inner)
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	s := New()
	s.SetHandler(handlerFunc(func(Event) {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		s.Schedule(5, Event{})
	}))
	s.Schedule(10, Event{})
	s.Run()
}

func TestNonFiniteTimePanics(t *testing.T) {
	s := New()
	for _, bad := range []float64{math.NaN(), math.Inf(1)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("scheduling at %v did not panic", bad)
				}
			}()
			s.Schedule(bad, Event{})
		}()
	}
}

// TestNegativeKindPanics pins the schedule-side half of the kind range
// DecodeState enforces: a state the kernel can hold is a state it can
// restore.
func TestNegativeKindPanics(t *testing.T) {
	s := New()
	defer func() {
		if recover() == nil {
			t.Error("negative event kind did not panic")
		}
	}()
	s.Schedule(1, Event{Kind: -1})
}

// TestRunContextTo pins the checkpoint barrier: events at or before t run,
// later ones stay pending, and the clock stays at the last executed event's
// time rather than advancing to t.
func TestRunContextTo(t *testing.T) {
	s := New()
	_, times := popRecorder(s, nil)
	for _, at := range []float64{1, 2, 3, 4, 5} {
		s.Schedule(at, Event{})
	}
	if err := s.RunContextTo(nil, 3.5); err != nil {
		t.Fatal(err)
	}
	if len(*times) != 3 || s.Pending() != 2 {
		t.Fatalf("RunContextTo(3.5) fired %d events with %d pending, want 3 and 2", len(*times), s.Pending())
	}
	if s.Now() != 3 {
		t.Fatalf("Now() = %v after RunContextTo(3.5), want the last event's time 3", s.Now())
	}
	if err := s.RunContextTo(nil, 10); err != nil {
		t.Fatal(err)
	}
	if len(*times) != 5 || s.Now() != 5 {
		t.Fatalf("fired %d events total with Now() = %v, want 5 and 5", len(*times), s.Now())
	}
}

func TestRunContextToBoundaryInclusive(t *testing.T) {
	s := New()
	_, times := popRecorder(s, nil)
	s.Schedule(3, Event{})
	s.Schedule(math.Nextafter(3, 4), Event{})
	if err := s.RunContextTo(nil, 3); err != nil {
		t.Fatal(err)
	}
	if len(*times) != 1 {
		t.Fatalf("RunContextTo(3) fired %d events, want only the one exactly at the horizon", len(*times))
	}
}

func TestRunContextToCancellation(t *testing.T) {
	s := New()
	popRecorder(s, nil)
	s.Schedule(1, Event{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := s.RunContextTo(ctx, 10); err != context.Canceled {
		t.Fatalf("RunContextTo = %v, want context.Canceled", err)
	}
	if !s.Stopped() || s.Processed() != 0 {
		t.Fatalf("after cancellation: stopped=%v processed=%d", s.Stopped(), s.Processed())
	}
}

func TestStopHaltsExecution(t *testing.T) {
	s := New()
	count := 0
	s.SetHandler(handlerFunc(func(Event) {
		count++
		if count == 4 {
			s.Stop()
		}
	}))
	for i := 1; i <= 10; i++ {
		s.Schedule(float64(i), Event{})
	}
	s.Run()
	if count != 4 {
		t.Fatalf("processed %d events after Stop, want 4", count)
	}
	if !s.Stopped() {
		t.Fatal("Stopped() = false")
	}
	if s.Pending() != 6 {
		t.Fatalf("Pending() = %d, want 6", s.Pending())
	}
}

func TestProcessedCount(t *testing.T) {
	s := New()
	popRecorder(s, nil)
	for i := 0; i < 25; i++ {
		s.Schedule(float64(i), Event{})
	}
	s.Run()
	if s.Processed() != 25 {
		t.Fatalf("Processed() = %d, want 25", s.Processed())
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func(seed uint64) []float64 {
		s := New()
		r := xrand.New(seed)
		// A carries the remaining chain depth.
		_, times := popRecorder(s, func(ev Event) {
			if ev.A > 0 {
				s.ScheduleAfter(r.Exp(1), Event{Node: ev.Node, A: ev.A - 1})
			}
		})
		for i := 0; i < 5; i++ {
			s.ScheduleAfter(r.Exp(1), Event{Node: int32(i), A: 19})
		}
		s.Run()
		return *times
	}
	a, b := run(77), run(77)
	if len(a) != 100 || len(a) != len(b) {
		t.Fatalf("replay lengths %d vs %d, want 100", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("replay diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestHeapOrderProperty(t *testing.T) {
	f := func(raw []uint32) bool {
		s := New()
		_, fired := popRecorder(s, nil)
		for _, v := range raw {
			s.Schedule(float64(v%100000)/1000, Event{})
		}
		s.Run()
		return len(*fired) == len(raw) && sort.Float64sAreSorted(*fired)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// startClocks wires a Clocks set firing tick into a fresh handler on s.
func startClocks(s *Simulator, seed uint64, n int, rate float64, tick func(int)) *Clocks {
	var c *Clocks
	s.SetHandler(handlerFunc(func(ev Event) { c.Fire(ev.Node, tick) }))
	c = NewClocks(s, xrand.New(seed), n, rate, 0)
	c.StartAll()
	return c
}

func TestClockRate(t *testing.T) {
	s := New()
	c := startClocks(s, 7, 1, 2.0, func(int) {})
	if err := s.RunContextTo(nil, 5000); err != nil {
		t.Fatal(err)
	}
	c.Stop(0)
	// Expect ~rate*horizon ticks; Poisson sd is sqrt(mean).
	mean := 2.0 * 5000
	got := float64(c.Ticks())
	if math.Abs(got-mean) > 6*math.Sqrt(mean) {
		t.Fatalf("clock ticked %v times over horizon, want ~%v", got, mean)
	}
}

func TestClockInterTickExponential(t *testing.T) {
	s := New()
	var times []float64
	c := startClocks(s, 8, 1, 1.0, func(int) { times = append(times, s.Now()) })
	if err := s.RunContextTo(nil, 20000); err != nil {
		t.Fatal(err)
	}
	c.Stop(0)
	// Kolmogorov-style check on gaps: fraction below ln 2 should be ~1/2.
	below := 0
	for i := 1; i < len(times); i++ {
		if times[i]-times[i-1] < math.Ln2 {
			below++
		}
	}
	frac := float64(below) / float64(len(times)-1)
	if math.Abs(frac-0.5) > 0.02 {
		t.Fatalf("fraction of gaps below median %v, want ~0.5", frac)
	}
}

func TestClockStopInsideCallback(t *testing.T) {
	s := New()
	count := 0
	var c *Clocks
	c = startClocks(s, 9, 1, 1.0, func(int) {
		count++
		if count == 3 {
			c.Stop(0)
		}
	})
	s.Run()
	if count != 3 {
		t.Fatalf("clock fired %d times after Stop, want 3", count)
	}
}

func TestClockDoubleStartPanics(t *testing.T) {
	s := New()
	c := startClocks(s, 1, 4, 1, func(int) {})
	defer func() {
		if recover() == nil {
			t.Fatal("double StartAll did not panic")
		}
	}()
	c.StartAll()
}

func TestLatencyMeans(t *testing.T) {
	r := xrand.New(10)
	cases := []struct {
		l Latency
	}{
		{ExpLatency{Rate: 0.5}},
		{ConstLatency{D: 3}},
		{UniformLatency{Lo: 1, Hi: 5}},
		{ErlangLatency{K: 4, Rate: 2}},
	}
	for _, c := range cases {
		const n = 100000
		sum := 0.0
		for i := 0; i < n; i++ {
			v := c.l.Sample(r)
			if v < 0 {
				t.Fatalf("%s sampled negative %v", c.l.Name(), v)
			}
			sum += v
		}
		got := sum / n
		want := c.l.Mean()
		if math.Abs(got-want) > 0.03*want+0.001 {
			t.Errorf("%s empirical mean %v, want %v", c.l.Name(), got, want)
		}
	}
}

func BenchmarkScheduleAndRun(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := New()
		s.SetHandler(handlerFunc(func(Event) {}))
		r := xrand.New(uint64(i))
		for j := 0; j < 1000; j++ {
			s.ScheduleAfter(r.Exp(1), Event{Node: int32(j)})
		}
		s.Run()
	}
}

func BenchmarkClockTicks(b *testing.B) {
	s := New()
	startClocks(s, 1, 1, 1, func(int) {})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.RunContextTo(nil, s.Now()+1); err != nil {
			b.Fatal(err)
		}
	}
}

func TestRunContextCancellation(t *testing.T) {
	s := New()
	ran := 0
	s.SetHandler(handlerFunc(func(ev Event) {
		ran++
		s.ScheduleAfter(1, ev) // never drains on its own
	}))
	s.Schedule(0, Event{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := s.RunContext(ctx); err != context.Canceled {
		t.Fatalf("RunContext = %v, want context.Canceled", err)
	}
	if !s.Stopped() {
		t.Error("simulator not stopped after cancellation")
	}
	if ran > 512 {
		t.Errorf("ran %d events after a pre-cancelled context", ran)
	}
}

func TestRunContextNilAndDrained(t *testing.T) {
	s := New()
	got, _ := popRecorder(s, nil)
	s.Schedule(1, Event{})
	if err := s.RunContext(nil); err != nil {
		t.Fatalf("RunContext(nil) = %v", err)
	}
	if len(*got) != 1 {
		t.Error("event did not run")
	}
	s2 := New()
	popRecorder(s2, nil)
	s2.Schedule(1, Event{})
	if err := s2.RunContext(context.Background()); err != nil {
		t.Fatalf("RunContext(Background) = %v", err)
	}
}
