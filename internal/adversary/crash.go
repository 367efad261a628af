package adversary

import (
	"errors"
	"fmt"

	"plurality/internal/opinion"
	"plurality/internal/snap"
	"plurality/internal/xrand"
)

// Start builds the adversary of an n-node run, or returns nil when cfg
// disables it: New on a private generator seeded from cfg.Seed (so the
// engine's own streams are untouched), then the lie target set to the
// runner-up of the initial counts. Round-based engines (async false) have
// no message latency to stretch, so they reject the delay kind.
func Start(cfg Config, n int, initial opinion.Counts, async bool) (*State, error) {
	if cfg.Kind == None {
		return nil, nil
	}
	if cfg.Kind == Delay && !async {
		return nil, errors.New("the delay adversary needs message latency; round-based engines reject it")
	}
	cfg.N = n
	s, err := New(cfg, xrand.New(cfg.Seed))
	if err != nil {
		return nil, err
	}
	if _, second := initial.TopTwo(); second >= 0 {
		s.SetLieTarget(int32(second))
	}
	return s, nil
}

// Crashes is the crash set of one run: which nodes are fail-stopped and how
// many survive. Engines read Down directly on their hot paths — a plain
// slice index, no call — and leave every write to Apply and Decode, which
// keep Alive equal to the number of unset flags.
type Crashes struct {
	// Down[v] reports that node v is crashed: it stops acting and cannot be
	// read when sampled.
	Down []bool
	// Alive is the survivor count consensus is measured against.
	Alive int
}

// NewCrashes returns the crash set of an n-node run with every node up.
func NewCrashes(n int) Crashes {
	return Crashes{Down: make([]bool, n), Alive: n}
}

// Apply runs every crash action s has due at or before now — the one-shot
// fail-stop of the whole victim pool, or each pending churn toggle in turn
// — and reports each flip to note, if non-nil (down: the node crashed;
// otherwise it recovered with the state it crashed with), so the engine
// can move the node in or out of its survivor tallies. It returns the time
// of the next pending action, or -1 when none is left.
func (c *Crashes) Apply(s *State, now float64, note func(v int, down bool)) float64 {
	for at := s.NextCrashAt(); at >= 0 && at <= now; at = s.NextCrashAt() {
		if s.Churning() {
			c.flip(s, s.NextVictim(), note)
			continue
		}
		for _, v := range s.victims {
			c.flip(s, v, note)
		}
	}
	return s.NextCrashAt()
}

func (c *Crashes) flip(s *State, v int, note func(int, bool)) {
	down := !c.Down[v]
	c.Down[v] = down
	if down {
		c.Alive--
		s.Counters.Crashes++
	} else {
		c.Alive++
		s.Counters.Recoveries++
	}
	if note != nil {
		note(v, down)
	}
}

// Layout runs the crash section of an engine snapshot through c: the
// flags, then the alive count. A decoder fills c, which must already be
// sized for the run, and fails with snap.ErrCorrupt on a flag vector of
// another length or an alive count that disagrees with the flags.
func (c *Crashes) Layout(cd *snap.Codec) {
	n := len(c.Down)
	cd.Bools(&c.Down)
	cd.Int(&c.Alive)
	if !cd.Decoding() || cd.Err() != nil {
		return
	}
	if len(c.Down) != n {
		cd.Fail(fmt.Errorf("%w: %d crash flags for %d nodes", snap.ErrCorrupt, len(c.Down), n))
		return
	}
	up := 0
	for _, d := range c.Down {
		if !d {
			up++
		}
	}
	cd.Require(c.Alive == up, "alive count %d, but %d nodes are up", c.Alive, up)
}
