package sim

import (
	"testing"

	"plurality/internal/xrand"
)

// steadyHandler reschedules every popped event a pseudo-random distance in
// the future — the kernel's steady-state regime: a fixed population of
// pending events cycling through the heap.
type steadyHandler struct {
	s   *Simulator
	rng *xrand.RNG
}

func (h *steadyHandler) HandleEvent(ev Event) {
	h.s.ScheduleAfter(h.rng.Exp(1), ev)
}

// BenchmarkEventScheduling pins the zero-allocation guarantee of the typed
// event path: after warm-up, scheduling and dispatching events performs no
// heap allocations (CI asserts 0 B/op on this benchmark).
func BenchmarkEventScheduling(b *testing.B) {
	s := New()
	h := &steadyHandler{s: s, rng: xrand.New(1)}
	s.SetHandler(h)
	const pending = 1024
	s.Reserve(pending + 16)
	for i := 0; i < pending; i++ {
		s.ScheduleAfter(h.rng.Exp(1), Event{Kind: 0, Node: int32(i)})
	}
	// Warm up until the ladder's bucket arrays reach their stable
	// high-water capacities (the maximum over slots drifts for a while, so
	// this is deliberately generous).
	for i := 0; i < 64*pending; i++ {
		s.Step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step()
	}
}

// BenchmarkClocksTick measures the full per-node Poisson clock cycle
// (dispatch, Fire, Exp draw, reschedule) on a million clocks.
func BenchmarkClocksTick(b *testing.B) {
	s := New()
	const n = 1_000_000
	var ticks uint64
	var clocks *Clocks
	h := handlerFunc(func(ev Event) {
		clocks.Fire(ev.Node, func(int) { ticks++ })
	})
	s.SetHandler(h)
	s.Reserve(n + 16)
	clocks = NewClocks(s, xrand.New(3), n, 1, 0)
	clocks.StartAll()
	// Warm up past the first window rebuilds so the ladder reaches its
	// stable capacities before measurement.
	for i := 0; i < n; i++ {
		s.Step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step()
	}
	if ticks == 0 {
		b.Fatal("no ticks fired")
	}
}

// handlerFunc adapts a function to EventHandler for tests.
type handlerFunc func(Event)

func (f handlerFunc) HandleEvent(ev Event) { f(ev) }
