package adversary

import (
	"errors"
	"testing"

	"plurality/internal/sim"
	"plurality/internal/snap"
	"plurality/internal/xrand"
)

// TestVictimPoolDeterministic pins that the victim pool is a pure function
// of (Config, construction seed) — the property that lets restore recompute
// it instead of serializing it.
func TestVictimPoolDeterministic(t *testing.T) {
	cfg := Config{Kind: Crash, Fraction: 0.3, N: 50}
	a, err := New(cfg, xrand.New(7))
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(cfg, xrand.New(7))
	if err != nil {
		t.Fatal(err)
	}
	if len(a.victims) != 15 {
		t.Fatalf("pool size %d, want 15", len(a.victims))
	}
	for i := range a.victims {
		if a.victims[i] != b.victims[i] {
			t.Fatalf("victim %d differs between identically seeded adversaries", i)
		}
	}
	c, err := New(cfg, xrand.New(8))
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range a.victims {
		if a.victims[i] != c.victims[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds drew the same victim pool")
	}
}

// TestNewRejectsBadConfig covers New's structural guards.
func TestNewRejectsBadConfig(t *testing.T) {
	rng := func() *xrand.RNG { return xrand.New(1) }
	for _, cfg := range []Config{
		{Kind: None, N: 10},
		{Kind: Crash, N: 1},
		{Kind: Crash, N: 10, Fraction: -0.5},
		{Kind: Crash, N: 10, Fraction: 2},
		{Kind: Crash, N: 10, Fraction: 1}, // no survivors
		{Kind: Delay, N: 10, Fraction: 0.5, Rate: -1},
		{Kind: Crash, N: 10, Fraction: 0.5, At: -3},
	} {
		if _, err := New(cfg, rng()); err == nil {
			t.Errorf("New(%+v) succeeded, want error", cfg)
		}
	}
}

// TestChurnSchedule pins the churn walk: round-robin over the pool with
// strictly increasing toggle times.
func TestChurnSchedule(t *testing.T) {
	s, err := New(Config{Kind: Crash, Fraction: 0.2, Rate: 2, At: 1, N: 20}, xrand.New(3))
	if err != nil {
		t.Fatal(err)
	}
	if !s.Churning() {
		t.Fatal("Rate > 0 should churn")
	}
	if got := s.NextCrashAt(); got != 1 {
		t.Fatalf("first toggle at %g, want the configured At=1", got)
	}
	pool := s.victims
	last := s.NextCrashAt()
	for i := 0; i < 2*len(pool); i++ {
		v := s.NextVictim()
		if v != pool[i%len(pool)] {
			t.Fatalf("toggle %d hit %d, want round-robin %d", i, v, pool[i%len(pool)])
		}
		if next := s.NextCrashAt(); next <= last {
			t.Fatalf("toggle times not increasing: %g after %g", next, last)
		} else {
			last = next
		}
	}
}

// TestLieFiltersVictimsOnly pins the Byzantine read filter and its counter.
func TestLieFiltersVictimsOnly(t *testing.T) {
	s, err := New(Config{Kind: Byzantine, Fraction: 0.25, N: 40}, xrand.New(9))
	if err != nil {
		t.Fatal(err)
	}
	s.SetLieTarget(2)
	liar := s.victims[0]
	honest := -1
	flags := make([]bool, 40)
	for _, v := range s.victims {
		flags[v] = true
	}
	for v, lies := range flags {
		if !lies {
			honest = v
			break
		}
	}
	if got := s.Lie(honest, 0); got != 0 {
		t.Errorf("honest node's opinion rewritten to %d", got)
	}
	if got := s.Lie(liar, 0); got != 2 {
		t.Errorf("liar reported %d, want the lie target 2", got)
	}
	if s.Counters.Lies != 1 {
		t.Errorf("Lies counter %d, want 1", s.Counters.Lies)
	}
}

// TestStateRoundtrip pins that encode → decode restores the generator,
// cursor, toggle time and counters, so a restored adversary continues the
// same future. The drop stream doubles as the determinism probe.
func TestStateRoundtrip(t *testing.T) {
	mk := func() *State {
		s, err := New(Config{Kind: Drop, Fraction: 0.5, N: 10}, xrand.New(21))
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	a := mk()
	for i := 0; i < 100; i++ {
		a.DropMessage()
	}
	w := snap.NewEncoder()
	a.Layout(w)

	b := mk()
	r := snap.NewDecoder(w.Bytes())
	b.Layout(r)
	if err := r.Finish(); err != nil {
		t.Fatal(err)
	}
	if b.Counters != a.Counters {
		t.Fatalf("restored counters %+v != captured %+v", b.Counters, a.Counters)
	}
	for i := 0; i < 200; i++ {
		if a.DropMessage() != b.DropMessage() {
			t.Fatalf("drop stream diverges %d draws after restore", i)
		}
	}
}

// TestDelayBounded pins that delay stays within Rate× the latency model and
// is counted only when non-zero.
func TestDelayBounded(t *testing.T) {
	s, err := New(Config{Kind: Delay, Fraction: 1, Rate: 3, N: 10}, xrand.New(4))
	if err != nil {
		t.Fatal(err)
	}
	lat := sim.ConstLatency{D: 2}
	for i := 0; i < 50; i++ {
		if d := s.DelayExtra(lat); d != 6 {
			t.Fatalf("delay %g under Const(2) with Rate 3, want exactly 6", d)
		}
	}
	if s.Counters.Delayed != 50 {
		t.Errorf("Delayed counter %d, want 50", s.Counters.Delayed)
	}
}

// TestCrashesApply pins the crash set's two schedules: the one-shot crash
// fires once, at At, and stops scheduling; churn applies every toggle due
// and keeps Alive equal to the unset flags, with each flip reported.
func TestCrashesApply(t *testing.T) {
	oneShot, err := New(Config{Kind: Crash, Fraction: 0.3, At: 5, N: 20}, xrand.New(2))
	if err != nil {
		t.Fatal(err)
	}
	c := NewCrashes(20)
	flips := 0
	note := func(int, bool) { flips++ }
	if next := c.Apply(oneShot, 4, note); next != 5 || flips != 0 {
		t.Fatalf("before At: next %g, %d flips; want 5, 0", next, flips)
	}
	if next := c.Apply(oneShot, 5, note); next != -1 || flips != 6 || c.Alive != 14 {
		t.Fatalf("at At: next %g, %d flips, %d alive; want -1, 6, 14", next, flips, c.Alive)
	}
	if c.Apply(oneShot, 100, note); flips != 6 || oneShot.Counters.Crashes != 6 {
		t.Fatalf("one-shot crash fired again: %d flips, %d crashes", flips, oneShot.Counters.Crashes)
	}

	churn, err := New(Config{Kind: Crash, Fraction: 0.3, Rate: 2, At: 1, N: 20}, xrand.New(3))
	if err != nil {
		t.Fatal(err)
	}
	c, flips = NewCrashes(20), 0
	next := c.Apply(churn, 10, note)
	up := 0
	for _, d := range c.Down {
		if !d {
			up++
		}
	}
	cnt := churn.Counters
	if next <= 10 || up != c.Alive || flips != int(cnt.Crashes+cnt.Recoveries) ||
		int(cnt.Crashes-cnt.Recoveries) != 20-c.Alive {
		t.Fatalf("churn to t=10: next %g, alive %d of %d up, %d flips, counters %+v",
			next, c.Alive, up, flips, cnt)
	}
}

// TestCrashesDecodeRejectsInconsistentSection pins the crash-section codec:
// a roundtrip restores the set, and a flag vector of another length or an
// alive count that disagrees with the flags fails with snap.ErrCorrupt.
func TestCrashesDecodeRejectsInconsistentSection(t *testing.T) {
	c := NewCrashes(4)
	c.Down[1], c.Alive = true, 3
	decode := func(down []bool, alive int) (Crashes, error) {
		w := snap.NewEncoder()
		(&Crashes{Down: down, Alive: alive}).Layout(w)
		got := NewCrashes(4)
		r := snap.NewDecoder(w.Bytes())
		got.Layout(r)
		return got, r.Finish()
	}
	got, err := decode(c.Down, c.Alive)
	if err != nil || got.Alive != 3 || !got.Down[1] {
		t.Fatalf("roundtrip: %+v, %v", got, err)
	}
	if _, err := decode(c.Down, 4); !errors.Is(err, snap.ErrCorrupt) {
		t.Errorf("alive count 4 with one node down: got %v, want ErrCorrupt", err)
	}
	if _, err := decode(make([]bool, 5), 5); !errors.Is(err, snap.ErrCorrupt) {
		t.Errorf("5 flags for 4 nodes: got %v, want ErrCorrupt", err)
	}
}
