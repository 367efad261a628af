package sim

import (
	"container/heap"
	"context"
	"math"
	"slices"
	"testing"
	"testing/quick"

	"plurality/internal/stats"
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

// TestHeldTickTieBreak pins that the held slot keeps the (at, seq) order:
// a held tick and a ladder event at the same time pop in scheduling
// order, whichever was scheduled first.
func TestHeldTickTieBreak(t *testing.T) {
	for _, tickFirst := range []bool{true, false} {
		s := New()
		got, _ := popRecorder(s, nil)
		if tickFirst {
			s.scheduleTick(1, Event{Node: 1})
			s.Schedule(1, Event{Node: 2})
		} else {
			s.Schedule(1, Event{Node: 1})
			s.scheduleTick(1, Event{Node: 2})
		}
		if s.heldJ == noTick || s.Pending() != 2 {
			t.Fatalf("tickFirst=%v: tick not held or Pending() = %d, want 2", tickFirst, s.Pending())
		}
		s.Run()
		if len(*got) != 2 || (*got)[0] != 1 || (*got)[1] != 2 {
			t.Fatalf("tickFirst=%v: popped %v, want [1 2]", tickFirst, *got)
		}
	}
}

// TestHeldTickBoundsLadderAdvance pins the bound on the ladder's advance:
// popping a held tick that is earlier than everything in the ladder leaves
// the window where it was, so the next insert near the clock lands in the
// ring, not in the near heap of a window jumped ahead to the far event.
func TestHeldTickBoundsLadderAdvance(t *testing.T) {
	s := New()
	popRecorder(s, nil)
	s.Schedule(10, Event{Node: 10})
	s.scheduleTick(0.001, Event{Node: 1})
	if !s.Step() || s.Now() != 0.001 {
		t.Fatalf("first pop at %v, want the held tick at 0.001", s.Now())
	}
	s.Schedule(0.002, Event{Node: 2})
	if len(s.near) != 0 || s.inBuckets != 1 {
		t.Fatalf("insert after the tick went to the near heap (%d) instead of the ring (%d)", len(s.near), s.inBuckets)
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
// Layout enforces on decode: a state the kernel can hold is a state it can
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

// TestRunContextToStopsBeforeHeldTick pins the barrier against the held
// slot: a held tick later than the bound stays pending, and one within it
// runs, whether the ladder's next event is in the same bucket or beyond
// the window.
func TestRunContextToStopsBeforeHeldTick(t *testing.T) {
	s := New()
	got, _ := popRecorder(s, nil)
	s.Schedule(1, Event{Node: 1})
	s.scheduleTick(1.0005, Event{Node: 2})
	s.Schedule(1.0009, Event{Node: 3})
	s.Schedule(7, Event{Node: 7})
	for _, step := range []struct {
		bound   float64
		popped  []int32
		pending int
	}{
		{0.5, nil, 4},
		{1.0002, []int32{1}, 3},
		{1.0007, []int32{1, 2}, 2},
		{5, []int32{1, 2, 3}, 1},
	} {
		if err := s.RunContextTo(nil, step.bound); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(*got, step.popped) || s.Pending() != step.pending {
			t.Fatalf("RunContextTo(%v): popped %v with %d pending, want %v and %d",
				step.bound, *got, s.Pending(), step.popped, step.pending)
		}
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

// TestHeapOrderProperty pins the pop order against a reference binary
// heap over (at, seq): random one-off events plus two Clocks on one
// simulator, so one clock's tick is held while the other's goes through
// the ladder, and the slot passes between them.
func TestHeapOrderProperty(t *testing.T) {
	const n, rate, horizon = 3, 1.0, 100.0
	f := func(raw []uint32, seed uint64) bool {
		s := New()
		var clocks [2]*Clocks
		var got []pop
		s.SetHandler(handlerFunc(func(ev Event) {
			got = append(got, pop{s.Now(), ev})
			if ev.Kind < 2 {
				clocks[ev.Kind].Fire(ev.Node, func(int) {})
			}
		}))
		for _, v := range raw {
			s.Schedule(float64(v%100000)/1000, Event{Kind: 2, Node: int32(v)})
		}
		parent := xrand.New(seed)
		for k := range clocks {
			clocks[k] = NewClocks(s, parent, n, rate, int32(k))
			clocks[k].StartAll()
		}
		if err := s.RunContextTo(nil, horizon); err != nil {
			t.Fatal(err)
		}
		return slices.Equal(got, referencePops(raw, seed, n, rate, horizon))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// refEvent is a pending event of referencePops' queue.
type refEvent struct {
	at  float64
	seq uint64
	ev  Event
}

// refHeap is a container/heap min-heap over (at, seq).
type refHeap []refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	return h[i].at < h[j].at || (h[i].at == h[j].at && h[i].seq < h[j].seq)
}
func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)   { *h = append(*h, x.(refEvent)) }
func (h *refHeap) Pop() any {
	old := *h
	e := old[len(old)-1]
	*h = old[:len(old)-1]
	return e
}

// referencePops replays TestHeapOrderProperty's workload on a plain binary
// heap: the same one-off events, then two clocks that draw their gaps and
// nodes from the same split generators as Clocks, each tick scheduling
// the clock's next one.
func referencePops(raw []uint32, seed uint64, n int, rate, horizon float64) []pop {
	var h refHeap
	var seq uint64
	now := 0.0
	push := func(at float64, ev Event) {
		heap.Push(&h, refEvent{at, seq, ev})
		seq++
	}
	for _, v := range raw {
		push(float64(v%100000)/1000, Event{Kind: 2, Node: int32(v)})
	}
	parent := xrand.New(seed)
	var rngs [2]*xrand.RNG
	tick := func(k int) {
		dt := rngs[k].Exp(float64(n) * rate)
		push(now+dt, Event{Kind: int32(k), Node: int32(rngs[k].Intn(n))})
	}
	for k := range rngs {
		rngs[k] = parent.Split()
		tick(k)
	}
	var pops []pop
	for h.Len() > 0 && h[0].at <= horizon {
		e := heap.Pop(&h).(refEvent)
		now = e.at
		pops = append(pops, pop{e.at, e.ev})
		if e.ev.Kind < 2 {
			tick(int(e.ev.Kind))
		}
	}
	return pops
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
	// Expect ~rate*horizon ticks; Poisson sd is sqrt(mean).
	mean := 2.0 * 5000
	got := float64(c.Ticks())
	if math.Abs(got-mean) > 6*math.Sqrt(mean) {
		t.Fatalf("clock ticked %v times over horizon, want ~%v", got, mean)
	}
}

// TestClockInterTickExponential checks the superposed clock node by node:
// one node's own inter-tick gaps must be Exp(rate), as if it owned a
// private rate-r clock.
func TestClockInterTickExponential(t *testing.T) {
	const n, rate, node = 16, 1.5, 5
	s := New()
	var times []float64
	startClocks(s, 8, n, rate, func(v int) {
		if v == node {
			times = append(times, s.Now())
		}
	})
	if err := s.RunContextTo(nil, 20000); err != nil {
		t.Fatal(err)
	}
	gaps := make([]float64, len(times)-1)
	for i := range gaps {
		gaps[i] = times[i+1] - times[i]
	}
	if len(gaps) < 20000 {
		t.Fatalf("node %d ticked %d times, want ~%v", node, len(times), rate*20000)
	}
	if !stats.KSTest(gaps, func(x float64) float64 { return -math.Expm1(-rate * x) }, 0.001) {
		t.Fatalf("node %d's inter-tick gaps are not Exp(%v)", node, rate)
	}
}

// TestClockTicksUniformOverNodes checks that the superposed clock hands
// each tick to a uniform node: per-node tick counts pass a χ² test.
func TestClockTicksUniformOverNodes(t *testing.T) {
	const n = 50
	s := New()
	counts := make([]int, n)
	c := startClocks(s, 11, n, 1, func(v int) { counts[v]++ })
	if err := s.RunContextTo(nil, 2000); err != nil {
		t.Fatal(err)
	}
	expected := make([]float64, n)
	for i := range expected {
		expected[i] = float64(c.Ticks()) / n
	}
	if !stats.ChiSquareTest(counts, expected, 0.001) {
		t.Fatalf("per-node tick counts %v are not uniform", counts)
	}
}

// TestClockStopInsideCallback pins the engines' termination pattern: a
// Stop called from inside a tick callback ends the run after that tick.
func TestClockStopInsideCallback(t *testing.T) {
	s := New()
	count := 0
	startClocks(s, 9, 4, 1.0, func(int) {
		count++
		if count == 3 {
			s.Stop()
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
