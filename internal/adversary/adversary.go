// Package adversary is the pluggable fault layer shared by every engine: it
// owns the adversarial randomness, the deterministic victim pools, the
// per-kind decision hooks (crash/recovery churn, message delay, message
// drop, Byzantine opinion lying) and the crash set those decisions act on
// (Crashes: crashed flags and alive count, its snapshot section and the
// survivor-consensus test). The engines own their colour tallies, which
// Crashes.Apply keeps current through a callback, and their event
// scheduling.
//
// The split is deliberate. Engine hot paths stay byte-identical when no
// adversary is configured — every hook is behind a nil check and the
// adversary draws from its own generator, never from an engine stream — and
// engine snapshot layouts stay unchanged: adversary state (generator words,
// churn cursor, counters) is appended to an engine's payload only when the
// run is adversarial, so pre-adversary blobs load unchanged.
//
// Hook placement follows the three seams named in the roadmap: node
// activation (is the node crashed? is it time for the next churn toggle?),
// partner sampling (is the sampled contact's reply dropped?), and message or
// state exchange (is the delivery delayed? is the reported opinion a lie?).
package adversary

import (
	"fmt"
	"math"

	"plurality/internal/sim"
	"plurality/internal/snap"
	"plurality/internal/xrand"
)

// Kind selects the adversarial behavior of a run.
type Kind int

const (
	// None disables the adversary; the zero Config means an honest run.
	None Kind = iota
	// Crash fail-stops a Fraction of the nodes at time At. With Rate > 0
	// the one-shot crash becomes churn: victims toggle between crashed and
	// recovered one at a time, with Exp(Rate) gaps between toggles.
	Crash
	// Delay stretches message deliveries: each message is delayed with
	// probability Fraction by Rate× an extra sample of the run's own
	// edge-latency distribution, so the slowdown stays bounded by (a
	// multiple of) the latency model rather than being arbitrary.
	Delay
	// Drop loses each sampled contact's reply independently with
	// probability Fraction; the affected node simply sees no usable state
	// from that partner.
	Drop
	// Byzantine makes a Fraction of the nodes lie about their opinion
	// whenever they are read, reporting an adversarially chosen target
	// opinion (the initial runner-up) instead of their true state.
	Byzantine
)

// String names the kind for errors and labels.
func (k Kind) String() string {
	switch k {
	case None:
		return "none"
	case Crash:
		return "crash"
	case Delay:
		return "delay"
	case Drop:
		return "drop"
	case Byzantine:
		return "byzantine"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Config parametrizes one adversary instance. Engines construct the State
// themselves (see Start) so restore paths rebuild it deterministically.
type Config struct {
	// Kind selects the behavior; None disables everything.
	Kind Kind
	// Fraction is the affected share: of nodes for Crash/Byzantine, of
	// messages for Delay/Drop.
	Fraction float64
	// Rate is the churn rate for Crash (0 = one-shot) and the latency
	// multiplier for Delay.
	Rate float64
	// At is the virtual time (or round) the Crash adversary first acts.
	At float64
	// N is the node count the victim pools are drawn over; Start fills it in
	// from the engine's node count.
	N int
	// Seed seeds the adversary's private generator. New does not read it —
	// Start builds the generator as xrand.New(Seed) — but carrying it here
	// keeps engine configs to a single adversary field.
	Seed uint64
}

// Counters tallies every adversarial action of a run; engines surface them
// through their results and the public Stats map.
type Counters struct {
	// Crashes and Recoveries count fail-stop and churn-recovery toggles.
	Crashes, Recoveries uint64
	// Drops counts lost contact replies, Delayed counts stretched message
	// deliveries, Lies counts Byzantine opinion reads.
	Drops, Delayed, Lies uint64
}

// State is one run's adversary: configuration, private generator, victim
// pool, churn cursor and counters. It is not safe for concurrent use — like
// everything else in a run, it belongs to exactly one replication.
type State struct {
	cfg Config
	rng *xrand.RNG

	// victims is the deterministic pool (crash victims or Byzantine liars):
	// a Perm(N) prefix of the construction generator, recomputed — not
	// serialized — on restore, exactly like topology construction seeds.
	victims  []int
	isVictim []bool

	// cursor walks the victim pool round-robin under churn; nextAt is the
	// time of the next churn toggle.
	cursor int
	nextAt float64

	lieTarget int32

	// Counters tallies the actions applied so far.
	Counters Counters
}

// New builds the adversary state for cfg, drawing the victim pool from rng;
// the generator is retained as the adversary's private stream. cfg must have
// been validated by the caller (the public AdversarySpec and the engine
// configs both do); New only guards against structurally impossible values.
func New(cfg Config, rng *xrand.RNG) (*State, error) {
	if cfg.Kind == None {
		return nil, fmt.Errorf("adversary: New with Kind None")
	}
	if cfg.N < 2 {
		return nil, fmt.Errorf("adversary: need N >= 2, got %d", cfg.N)
	}
	if cfg.Fraction < 0 || cfg.Fraction > 1 || math.IsNaN(cfg.Fraction) {
		return nil, fmt.Errorf("adversary: Fraction %v outside [0,1]", cfg.Fraction)
	}
	if cfg.Rate < 0 || math.IsNaN(cfg.Rate) || math.IsInf(cfg.Rate, 0) {
		return nil, fmt.Errorf("adversary: invalid Rate %v", cfg.Rate)
	}
	if cfg.At < 0 || math.IsNaN(cfg.At) || math.IsInf(cfg.At, 0) {
		return nil, fmt.Errorf("adversary: invalid At %v", cfg.At)
	}
	s := &State{cfg: cfg, rng: rng, nextAt: cfg.At}
	if cfg.Kind == Crash || cfg.Kind == Byzantine {
		m := int(cfg.Fraction * float64(cfg.N))
		if cfg.Kind == Crash && m >= cfg.N {
			return nil, fmt.Errorf("adversary: crash fraction %v leaves no survivors", cfg.Fraction)
		}
		s.victims = rng.Perm(cfg.N)[:m]
		s.isVictim = make([]bool, cfg.N)
		for _, v := range s.victims {
			s.isVictim[v] = true
		}
	}
	return s, nil
}

// Churning reports whether the Crash adversary toggles victims continuously
// (Rate > 0) rather than one-shot fail-stopping the pool at At.
func (s *State) Churning() bool { return s.cfg.Kind == Crash && s.cfg.Rate > 0 }

// NextCrashAt returns the time of the next crash/churn action, or -1 when
// the adversary has none pending (non-crash kinds, an empty pool, or a
// one-shot crash that has already fired).
func (s *State) NextCrashAt() float64 {
	if s.cfg.Kind != Crash || len(s.victims) == 0 || (!s.Churning() && s.Counters.Crashes > 0) {
		return -1
	}
	return s.nextAt
}

// NextVictim returns the victim of the current churn toggle and advances the
// churn cursor and next-toggle time (Exp(Rate) gap). The toggle crashes the
// victim if it is up and recovers it otherwise (see Crashes.Apply).
func (s *State) NextVictim() int {
	v := s.victims[s.cursor]
	s.cursor = (s.cursor + 1) % len(s.victims)
	s.nextAt += s.rng.Exp(s.cfg.Rate)
	return v
}

// DelayExtra returns the extra delivery delay for one message: 0 for
// non-Delay kinds, and with probability Fraction an extra Rate·lat sample
// drawn from the adversary's own generator. A non-zero return is counted.
func (s *State) DelayExtra(lat sim.Latency) float64 {
	if s.cfg.Kind != Delay || !s.rng.Bernoulli(s.cfg.Fraction) {
		return 0
	}
	d := s.cfg.Rate * lat.Sample(s.rng)
	if d > 0 {
		s.Counters.Delayed++
	}
	return d
}

// DropMessage reports whether one sampled contact's reply is lost (Drop kind
// only, probability Fraction). A drop is counted.
func (s *State) DropMessage() bool {
	if s.cfg.Kind != Drop || !s.rng.Bernoulli(s.cfg.Fraction) {
		return false
	}
	s.Counters.Drops++
	return true
}

// SetLieTarget fixes the opinion Byzantine liars report. Engines call it
// once after computing the initial counts (the target is the initial
// runner-up, the most disruptive consistent lie).
func (s *State) SetLieTarget(col int32) { s.lieTarget = col }

// Lie filters one opinion read: when node is a Byzantine liar the lie target
// replaces (and counts) the true opinion, otherwise col passes through.
func (s *State) Lie(node int, col int32) int32 {
	if s.cfg.Kind != Byzantine || !s.isVictim[node] {
		return col
	}
	s.Counters.Lies++
	return s.lieTarget
}

// Layout runs the mutable adversary state — generator words, churn cursor
// and next-toggle time, lie target, counters — through c. The victim pool
// is a pure function of the construction seed and is recomputed by New on
// restore, so it is deliberately not serialized; decode into an adversary
// freshly constructed with the same Config and construction seed.
func (s *State) Layout(c *snap.Codec) {
	c.RNG(s.rng)
	c.Int(&s.cursor)
	c.F64(&s.nextAt)
	c.I32(&s.lieTarget)
	c.U64(&s.Counters.Crashes)
	c.U64(&s.Counters.Recoveries)
	c.U64(&s.Counters.Drops)
	c.U64(&s.Counters.Delayed)
	c.U64(&s.Counters.Lies)
	c.Require(s.cursor >= 0 && (s.cursor < len(s.victims) || s.cursor == 0),
		"adversary cursor %d outside pool of %d", s.cursor, len(s.victims))
	c.Require(!math.IsNaN(s.nextAt) && !math.IsInf(s.nextAt, 0), "non-finite adversary nextAt %v", s.nextAt)
}

// Perturb folds a divergence label into the adversary generator (see
// xrand.RNG.Perturb); label 0 is the identity.
func (s *State) Perturb(label uint64) {
	if label == 0 {
		return
	}
	s.rng.Perturb(label)
}
