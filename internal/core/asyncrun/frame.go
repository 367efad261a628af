// Package asyncrun is the run frame the asynchronous engines share: the
// single-leader protocol (internal/core/leader), the decentralized one
// (internal/core/noleader) and the Poisson-clock baseline
// (internal/baseline). All three run on the paper's model — per-node
// Poisson clocks, channel latencies, an optional adversary — and one run
// records, times out and reports the same way. A Frame, embedded by value
// in the engine's state, owns that lifecycle: set-up, the cold events, the
// message and crash helpers, the shared half of a restore and the
// epilogue. The engine keeps its hot handlers, its own node state and its
// snapshot layout, whose field order is blob bytes.
package asyncrun

import (
	"context"
	"errors"
	"fmt"

	"plurality/internal/adversary"
	"plurality/internal/metrics"
	"plurality/internal/opinion"
	"plurality/internal/sim"
	"plurality/internal/snap"
	"plurality/internal/xrand"
)

// Event kinds. The frame owns kinds 0 and 3–6; an engine numbers its own
// kinds 1 and 2. Kinds are snapshot bytes, so the numbers never change.
const (
	// KindTick is one Poisson tick of node ev.Node. The engine handles it
	// on its hot path (Clocks.Fire); the frame only schedules and checks it.
	KindTick int32 = 0
	// KindRecord is the periodic trajectory recorder; it reschedules itself
	// every Config.RecordEvery and stops the run on consensus or once the
	// horizon has passed.
	KindRecord int32 = 3
	// KindDeadline is the hard MaxTime watchdog, independent of the
	// recorder cadence.
	KindDeadline int32 = 4
	// KindCrash applies the crash-adversary actions due now: a one-shot
	// fail-stop of the victim pool, or one churn toggle (see
	// internal/adversary).
	KindCrash int32 = 5
	// KindAdvDeliver delivers a message the delay adversary held back: A is
	// the payload-arena slot holding the original event.
	KindAdvDeliver int32 = 6
)

// Config is what the frame reads of its engine's configuration.
type Config struct {
	// N is the number of nodes and K the number of opinions.
	N, K int
	// Latency is the channel-establishment distribution.
	Latency sim.Latency
	// MaxTime is the abort horizon and RecordEvery the recording interval,
	// both in virtual time.
	MaxTime, RecordEvery float64
	// Eps, DiscardTrajectory and Observe configure the recorder (see
	// metrics.NewRecorder).
	Eps               float64
	DiscardTrajectory bool
	Observe           func(metrics.Point)
	// Adv configures the adversary; the zero value is an honest run.
	Adv adversary.Config
	// Ckpt requests captures and/or resumes from one; nil disables it.
	Ckpt *snap.Checkpoint
	// Ctx cancels the run; nil means never cancelled.
	Ctx context.Context
	// Reserve hints the engine's pending-event population (see
	// sim.Simulator.Reserve).
	Reserve int
	// Point, when non-nil, adds the engine's own fields to every recorded
	// trajectory point.
	Point func(*metrics.Point)
	// NoteCrash, when non-nil, is told of every node that crashes (down)
	// or recovers, after the frame has moved its opinion, so the engine
	// can move the node's own state out of or back into its tallies.
	NoteCrash func(v int, down bool)
}

// Summary is what every asynchronous run reports; Finish fills it.
type Summary struct {
	// Outcome summarizes correctness and hitting times (virtual time).
	Outcome metrics.Outcome
	// Trajectory holds the periodic snapshots.
	Trajectory metrics.Trajectory
	// EndTime is the virtual time at termination.
	EndTime float64
	// Events is the number of simulator events processed.
	Events uint64
	// FinalCounts are the survivors' opinion counts at termination.
	FinalCounts opinion.Counts
	// TimedOut reports that MaxTime was hit before full consensus.
	TimedOut bool
	// AdvCounters tallies the adversary's actions (zero for honest runs).
	AdvCounters adversary.Counters
}

// Frame is the lifecycle state of one asynchronous run. The engine fills
// Cols, Counts and Plurality, calls Start, handles its hot kinds and
// passes every other event to Handle, runs with Run and reports Finish.
type Frame struct {
	Sim    *sim.Simulator
	Clocks *sim.Clocks
	Lat    sim.Latency
	LatR   *xrand.RNG // latency randomness

	// Cols holds every node's opinion and Counts the survivors' tallies,
	// which the run records, stops on and reports; Plurality is the
	// initially dominant opinion.
	Cols      []opinion.Opinion
	Counts    opinion.Counts
	Plurality opinion.Opinion

	// Mono reports that the survivors are unanimous, since time MonoAt;
	// TimedOut that the horizon stopped the run first.
	Mono     bool
	MonoAt   float64
	TimedOut bool

	// Crash is the run's crash set; its survivor count is the population
	// every record and the outcome measure against. Honest runs keep every
	// node up.
	Crash adversary.Crashes
	// Adv is the run's adversary (nil for honest runs — the nil check is
	// the only cost the hot path pays) and Payload the side-arena delayed
	// messages park their original event in.
	Adv     *adversary.State
	Payload *sim.PayloadArena

	// Rec is the trajectory recorder.
	Rec *metrics.Recorder

	cfg Config
	h   sim.EventHandler // the engine, for delayed messages
}

// Start sets the run up around engine h: the latency stream (split from
// root after the engine's own sampling stream), the adversary with its
// payload arena and first crash, the handler, the clocks (the next split
// of root) and the recorder. A fresh run also starts the clocks, records
// its first point and schedules the recorder and the deadline; a resumed
// one leaves all of that to Restore.
func (f *Frame) Start(h sim.EventHandler, root *xrand.RNG, cfg Config) error {
	f.cfg, f.h = cfg, h
	f.Sim = sim.New()
	f.Lat = cfg.Latency
	f.LatR = root.SplitNamed("latency")
	f.Crash = adversary.NewCrashes(cfg.N)
	restoring := cfg.Ckpt.Restoring()
	adv, err := adversary.Start(cfg.Adv, cfg.N, f.Counts, true)
	if err != nil {
		return err
	}
	if adv != nil {
		f.Adv, f.Payload = adv, &sim.PayloadArena{}
		if at := adv.NextCrashAt(); at >= 0 && !restoring {
			f.Sim.Schedule(at, sim.Event{Kind: KindCrash})
		}
	}
	f.Sim.SetHandler(h)
	f.Sim.Reserve(cfg.Reserve)
	f.Clocks = sim.NewClocks(f.Sim, root.SplitNamed("clocks"), cfg.N, 1, KindTick)
	f.Rec = metrics.NewRecorder(cfg.Eps, cfg.DiscardTrajectory, cfg.Observe)
	if !restoring {
		f.Clocks.StartAll()
		f.record()
		f.Sim.ScheduleAfter(cfg.RecordEvery, sim.Event{Kind: KindRecord})
		f.Sim.Schedule(cfg.MaxTime, sim.Event{Kind: KindDeadline})
	}
	return nil
}

// Handle runs the frame's cold events. Engines switch on their hot kinds
// first and pass every other kind here.
func (f *Frame) Handle(ev sim.Event) {
	switch ev.Kind {
	case KindRecord:
		f.record()
		if f.Mono {
			f.Sim.Stop()
			return
		}
		if f.Sim.Now() >= f.cfg.MaxTime {
			f.TimedOut = true
			f.Sim.Stop()
			return
		}
		f.Sim.ScheduleAfter(f.cfg.RecordEvery, sim.Event{Kind: KindRecord})
	case KindDeadline:
		if f.Sim.Now() < f.cfg.MaxTime {
			// The horizon was extended after this watchdog was queued (a
			// resumed run may override MaxTime); re-arm at the new deadline.
			f.Sim.Schedule(f.cfg.MaxTime, sim.Event{Kind: KindDeadline})
			return
		}
		if !f.Mono {
			f.record()
			f.TimedOut = true
			f.Sim.Stop()
		}
	case KindCrash:
		if next := f.Crash.Apply(f.Adv, f.Sim.Now(), f.noteCrash); next >= 0 {
			f.Sim.Schedule(next, sim.Event{Kind: KindCrash})
		}
		// A crash can leave the survivors unanimous, and a node that
		// recovers with a stale opinion ends their unanimity: the run then
		// goes on until it is restored. A crash can also lift the initial
		// plurality's share to 1−ε.
		mono := f.Counts.Unanimous(f.Crash.Alive)
		if mono && !f.Mono {
			f.MonoAt = f.Sim.Now()
		}
		f.Mono = mono
		f.checkEps()
	case KindAdvDeliver:
		f.h.HandleEvent(f.Payload.Take(ev.A))
	}
}

// record appends one trajectory point at the current virtual time.
func (f *Frame) record() {
	p := metrics.SnapshotCounts(f.Sim.Now(), f.Counts, f.Crash.Alive, f.Plurality)
	if f.cfg.Point != nil {
		f.cfg.Point(&p)
	}
	f.Rec.Append(p)
}

// noteCrash moves a crashed (down) or recovered node's opinion out of or
// back into the survivor tallies, then tells the engine.
func (f *Frame) noteCrash(v int, down bool) {
	if down {
		f.Counts[f.Cols[v]]--
	} else {
		f.Counts[f.Cols[v]]++
	}
	if f.cfg.NoteCrash != nil {
		f.cfg.NoteCrash(v, down)
	}
}

// Recolor moves one survivor from opinion old to col in the tallies (the
// undecided opinion.None is in none) and notes the moment the move
// reaches: the survivors' unanimity (Mono) and the initial plurality's
// ε-hit. Every opinion change of a run goes through it, so both times are
// exact, not the next record point's.
func (f *Frame) Recolor(old, col opinion.Opinion) {
	if old != opinion.None {
		f.Counts[old]--
	}
	if col == opinion.None {
		return
	}
	f.Counts[col]++
	if f.Counts[col] == f.Crash.Alive && !f.Mono {
		f.Mono = true
		f.MonoAt = f.Sim.Now()
	}
	if col == f.Plurality {
		f.checkEps()
	}
}

// checkEps notes the ε-hit if the survivors' counts have reached it now.
func (f *Frame) checkEps() {
	f.Rec.CheckEps(f.Sim.Now(), f.Counts[f.Plurality], f.Crash.Alive)
}

// SendMsg schedules a protocol message d after now, giving the delay
// adversary a chance to stretch the delivery: a delayed message parks the
// original event in the payload arena and comes back as KindAdvDeliver.
// Honest runs take the plain path (one nil check, no extra draws).
func (f *Frame) SendMsg(d float64, ev sim.Event) {
	if f.Adv != nil {
		if extra := f.Adv.DelayExtra(f.Lat); extra > 0 {
			f.Sim.ScheduleAfter(d+extra, sim.Event{Kind: KindAdvDeliver, A: f.Payload.Put(ev)})
			return
		}
	}
	f.Sim.ScheduleAfter(d, ev)
}

// Run drives the kernel through the shared checkpoint barrier
// (sim.RunCheckpointed), capturing the engine's payload with capture; a
// run without checkpoints passes nil.
func (f *Frame) Run(capture func() []byte) error {
	return sim.RunCheckpointed(f.cfg.Ctx, f.Sim, f.cfg.Ckpt, capture)
}

// Restore overwrites the run's mutable state from the payload on c with
// the engine's layout, then rejects a state the run could never have
// reached, so the handlers, which index by it, cannot panic: the frame
// checks the opinions, the survivor tallies and its own event kinds, check
// the engine's state and valid each pending event of the engine's kinds.
// Last it applies the divergence label perturb to the latency stream, the
// clocks and the adversary; the engine perturbs its own streams. It runs
// after Start, instead of the fresh run's first events.
func (f *Frame) Restore(c *snap.Codec, layout func(*snap.Codec), check func() error,
	valid func(sim.Event) bool, perturb uint64) error {
	layout(c)
	if err := c.Finish(); err != nil {
		return fmt.Errorf("state: %w", err)
	}
	if err := f.check(check, valid); err != nil {
		return fmt.Errorf("%w: %s", snap.ErrCorrupt, err)
	}
	f.LatR.Perturb(perturb)
	f.Clocks.Perturb(perturb)
	if f.Adv != nil {
		f.Adv.Perturb(perturb)
	}
	return nil
}

func (f *Frame) check(check func() error, valid func(sim.Event) bool) error {
	if len(f.Cols) != f.cfg.N {
		return errors.New("node-state length mismatch (blob for a different N?)")
	}
	if err := check(); err != nil {
		return err
	}
	if !f.Counts.Tallies(f.Cols, f.Crash.Down) {
		return errors.New("color counts disagree with survivor opinions")
	}
	if !sim.ValidPending(f.Sim, f.Payload, func(ev sim.Event) bool {
		switch ev.Kind {
		case KindTick:
			return f.Nodes(ev.Node)
		case KindRecord, KindDeadline:
			return true
		case KindCrash:
			return f.Adv != nil
		case KindAdvDeliver:
			return f.Payload.Holds(ev.A)
		}
		return valid(ev)
	}) {
		return errors.New("pending event outside the run's kinds or node ids")
	}
	return nil
}

// Nodes reports whether every id is a node of the run.
func (f *Frame) Nodes(ids ...int32) bool {
	for _, v := range ids {
		if v < 0 || int(v) >= f.cfg.N {
			return false
		}
	}
	return true
}

// Finish records the final state unless the last point already holds it
// (a monochromatic flip between recordings would otherwise be missed) and
// reports the run over the survivors' counts. A unanimous run's consensus
// time is tightened from the recording grid to the exact flip.
func (f *Frame) Finish() Summary {
	s := Summary{
		EndTime:     f.Sim.Now(),
		Events:      f.Sim.Processed(),
		FinalCounts: append(opinion.Counts(nil), f.Counts...),
		TimedOut:    f.TimedOut,
	}
	if f.Adv != nil {
		s.AdvCounters = f.Adv.Counters
	}
	if last, ok := f.Rec.Last(); !ok || last.Time < s.EndTime {
		f.record()
	}
	s.Trajectory = f.Rec.Trajectory()
	s.Outcome = f.Rec.Outcome(s.FinalCounts, f.Crash.Alive, f.Plurality)
	// Mono holds only while one count equals the survivor population: the
	// engines set it then, the crash handler recomputes it, and no node
	// moves while it holds. So Outcome has judged the run a full consensus.
	if f.Mono {
		s.Outcome.ConsensusTime = f.MonoAt
	}
	return s
}
