package sim

import (
	"fmt"

	"plurality/internal/xrand"
)

// Clocks is the struct-of-arrays form of n Poisson clocks, one per node,
// firing typed events instead of closures: per-node generator state lives
// in one flat []xrand.RNG slice and every tick is a {kind, node} Event, so
// a million clocks cost two slices instead of a million clock objects and
// the steady-state tick path performs zero allocations. This matches the
// paper's per-node "random Poisson clock that ticks at constant rate".
//
// Seeding is bit-compatible with the legacy per-node construction the
// typed kernel replaced: the parent RNG is split once per node in node
// order, exactly as n successive parent.Split() calls would be.
type Clocks struct {
	sim     *Simulator
	kind    int32
	rate    float64
	rngs    []xrand.RNG
	stopped []bool
	ticks   uint64
	started bool
}

// NewClocks derives n per-node clocks of the given rate from parent,
// emitting Event{Kind: kind, Node: v} ticks on s. It panics if rate <= 0.
func NewClocks(s *Simulator, parent *xrand.RNG, n int, rate float64, kind int32) *Clocks {
	if rate <= 0 {
		panic(fmt.Sprintf("sim: clock rate %v", rate))
	}
	if kind < 0 {
		panic(fmt.Sprintf("sim: negative clock event kind %d", kind))
	}
	c := &Clocks{
		sim:     s,
		kind:    kind,
		rate:    rate,
		rngs:    make([]xrand.RNG, n),
		stopped: make([]bool, n),
	}
	for v := range c.rngs {
		parent.SplitInto(&c.rngs[v])
	}
	return c
}

// StartAll schedules the first tick of every clock in node order, through
// the kernel's bulk entry point (draw order and execution order are
// identical to n sequential ScheduleAfter calls; with the event ladder
// each insert is an O(1) bucket append, so the bulk form is a seam for
// future batching rather than a distinct fast path). Calling it twice
// panics: doubled clocks silently double the tick rate, corrupting the
// model.
func (c *Clocks) StartAll() {
	if c.started {
		panic("sim: clocks started twice")
	}
	c.started = true
	now := c.sim.Now()
	c.sim.ScheduleBatch(len(c.rngs), func(v int) (float64, Event) {
		return now + c.rngs[v].Exp(c.rate), Event{Kind: c.kind, Node: int32(v)}
	})
}

// Fire handles one popped tick event for node v: unless the clock is
// stopped it runs tick(v) and schedules the next tick (skipped when tick
// itself stopped the clock). Engines call it from their HandleEvent with a
// method value stored once at setup, so the call allocates nothing.
func (c *Clocks) Fire(v int32, tick func(int)) {
	if c.stopped[v] {
		return
	}
	c.ticks++
	tick(int(v))
	if !c.stopped[v] {
		c.sim.ScheduleAfter(c.rngs[v].Exp(c.rate), Event{Kind: c.kind, Node: v})
	}
}

// Stop permanently silences node v's clock; its pending tick becomes a
// no-op when popped (lazy cancellation). Safe to call repeatedly and from
// within the tick callback.
func (c *Clocks) Stop(v int32) { c.stopped[v] = true }

// Ticks returns the total number of ticks fired across all clocks.
func (c *Clocks) Ticks() uint64 { return c.ticks }

// Rate returns the configured Poisson rate.
func (c *Clocks) Rate() float64 { return c.rate }

// Len returns the number of clocks.
func (c *Clocks) Len() int { return len(c.rngs) }
