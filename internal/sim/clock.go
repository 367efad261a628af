package sim

import (
	"fmt"

	"plurality/internal/xrand"
)

// Clocks runs the paper's n rate-r Poisson clocks, one per node, as one
// superposed process. By superposition, n independent rate-r Poisson
// processes tick together as one rate-n·r process whose every tick belongs
// to a uniform node, independently of the past. So one generator draws
// the gap, Exp(n·r), and the node, and one tick event is pending at a
// time; each node's own ticks are still a rate-r Poisson process. The
// pending tick waits in the simulator's held slot, outside the event
// ladder (see Simulator).
type Clocks struct {
	sim     *Simulator
	kind    int32
	n       int
	rate    float64 // n·r, the superposed rate
	rng     xrand.RNG
	ticks   uint64
	started bool
}

// NewClocks derives n clocks of the given per-node rate from parent,
// emitting Event{Kind: kind, Node: v} ticks on s. It panics if rate <= 0.
func NewClocks(s *Simulator, parent *xrand.RNG, n int, rate float64, kind int32) *Clocks {
	if rate <= 0 {
		panic(fmt.Sprintf("sim: clock rate %v", rate))
	}
	if kind < 0 {
		panic(fmt.Sprintf("sim: negative clock event kind %d", kind))
	}
	return &Clocks{sim: s, kind: kind, n: n, rate: float64(n) * rate, rng: *parent.Split()}
}

// StartAll schedules the first tick. Calling it twice panics: doubled
// clocks silently double the tick rate, corrupting the model.
func (c *Clocks) StartAll() {
	if c.started {
		panic("sim: clocks started twice")
	}
	c.started = true
	c.schedule()
}

// Fire handles one popped tick event for node v: it runs tick(v) and
// schedules the next tick, which may belong to any node. Engines call it
// from their HandleEvent with a method value stored once at setup, so the
// call allocates nothing.
func (c *Clocks) Fire(v int32, tick func(int)) {
	c.ticks++
	tick(int(v))
	c.schedule()
}

func (c *Clocks) schedule() {
	dt := c.rng.Exp(c.rate)
	c.sim.scheduleTick(c.sim.now+dt, Event{Kind: c.kind, Node: int32(c.rng.Intn(c.n))})
}

// Ticks returns the total number of ticks fired across all clocks.
func (c *Clocks) Ticks() uint64 { return c.ticks }
