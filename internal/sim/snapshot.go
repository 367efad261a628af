package sim

import (
	"context"
	"fmt"
	"math"

	"plurality/internal/snap"
)

// pendingEvents calls f for every queued event in
// the ladder's canonical traversal order: the draining current bucket,
// then the near heap, then the ring slots, then the overflow tail. The
// order is a pure function of the execution that produced the state, so
// capturing the same state twice yields identical bytes.
func (s *Simulator) pendingEvents(f func(e event)) {
	for _, e := range s.cur[s.curPos:] {
		f(e)
	}
	for _, e := range s.near {
		f(e)
	}
	for _, b := range s.buckets {
		for _, e := range b {
			f(e)
		}
	}
	for _, e := range s.overflow {
		f(e)
	}
}

// EncodeState serializes the full scheduler state — virtual clock, sequence
// and processed counters, and the pending event set — into w. The encoding
// is canonical (ladder traversal order), so capturing the same state twice
// yields identical bytes.
func (s *Simulator) EncodeState(w *snap.Writer) {
	w.F64(s.now)
	w.U64(s.seq)
	w.U64(s.processed)
	w.Bool(s.stopped)
	w.Len32(s.pending)
	s.pendingEvents(func(e event) {
		w.F64(e.at)
		w.U64(e.seq)
		w.I32(e.kind)
		w.I32(e.node)
		w.I32(e.a)
		w.I32(e.b)
		w.I32(e.c)
	})
}

// DecodeState restores scheduler state previously written by EncodeState,
// discarding whatever was scheduled on s before the call. Because the
// (time, seq) key is a strict total order, the restored scheduler pops in
// exactly the captured order regardless of its internal layout; the pending
// events keep their captured order in the overflow tier, so re-encoding a
// restored state reproduces its bytes.
func (s *Simulator) DecodeState(r *snap.Reader) error {
	now := r.F64()
	seq := r.U64()
	processed := r.U64()
	stopped := r.Bool()
	n := r.Len32(36) // encoded event: F64 at, U64 seq, five I32 fields
	if err := r.Err(); err != nil {
		return err
	}
	if math.IsNaN(now) || math.IsInf(now, 0) || now < 0 {
		return r.Fail(fmt.Errorf("%w: clock %v out of range", snap.ErrCorrupt, now))
	}
	queue := make([]event, n)
	for i := range queue {
		e := event{
			at:   r.F64(),
			seq:  r.U64(),
			kind: r.I32(),
			node: r.I32(),
			a:    r.I32(),
			b:    r.I32(),
			c:    r.I32(),
		}
		if r.Err() != nil {
			return r.Err()
		}
		if math.IsNaN(e.at) || math.IsInf(e.at, 0) || e.at < now {
			return r.Fail(fmt.Errorf("%w: event at %v before clock %v", snap.ErrCorrupt, e.at, now))
		}
		if e.kind < 0 {
			return r.Fail(fmt.Errorf("%w: negative event kind %d", snap.ErrCorrupt, e.kind))
		}
		if e.seq >= seq {
			return r.Fail(fmt.Errorf("%w: event seq %d >= next seq %d", snap.ErrCorrupt, e.seq, seq))
		}
		queue[i] = e
	}
	s.now = now
	s.seq = seq
	s.processed = processed
	s.stopped = stopped
	// Park every event in the overflow tier under an empty window that ends
	// at the clock's bucket. All captured times are >= now, so the overflow
	// invariant holds, later inserts land in overflow too, and the first pop
	// rebuilds the window over the earliest event.
	s.cur = s.cur[:0]
	s.curPos = 0
	s.winHi = bucketOf(now)
	s.curIdx = s.winHi - 1
	s.near = s.near[:0]
	for i := range s.buckets {
		s.buckets[i] = s.buckets[i][:0]
	}
	s.inBuckets = 0
	s.overflow = append(s.overflow[:0], queue...)
	s.ovMinJ = math.MaxInt64
	for _, e := range queue {
		s.ovMinJ = min(s.ovMinJ, bucketOf(e.at))
	}
	s.pending = len(queue)
	return nil
}

// RunContextTo executes events with scheduled time <= t and returns with
// later events still pending, leaving the clock at the last executed
// event's time: a restored trajectory must not see a clock value the
// uninterrupted one never held. It returns early when the queue drains,
// Stop is called, or ctx is cancelled (polled every few hundred events,
// returning ctx.Err()). A nil ctx is never cancelled.
func (s *Simulator) RunContextTo(ctx context.Context, t float64) error {
	for i := uint(0); ; i++ {
		if ctx != nil && i&255 == 0 {
			select {
			case <-ctx.Done():
				s.Stop()
				return ctx.Err()
			default:
			}
		}
		if s.stopped {
			return nil
		}
		if at, ok := s.peekAt(); !ok || at > t {
			return nil
		}
		s.Step()
	}
}

// RunCheckpointed drives s to completion while honouring a pending
// checkpoint request — the shared barrier sequence of every engine: events
// scheduled at or before ck.At run first, then (if the run is still live
// and has pending work) capture produces the engine payload, the sink
// receives it, and ck.Halt optionally stops the run before the remainder
// executes. A nil or capture-less ck degrades to plain RunContext.
func RunCheckpointed(ctx context.Context, s *Simulator, ck *snap.Checkpoint, capture func() []byte) error {
	if ck.Capturing() {
		if err := s.RunContextTo(ctx, ck.At); err != nil {
			return err
		}
		if !s.Stopped() && s.Pending() > 0 {
			ck.Sink(capture(), s.Now(), s.Processed())
			if ck.Halt {
				s.Stop()
			}
		}
	}
	return s.RunContext(ctx)
}

// EncodeState serializes the clocks' mutable state — per-node generator
// words, stopped flags and the tick counter — into w. The static rate and
// event kind are reconstructed by the owning engine, which also recreates
// the Clocks value before calling DecodeState.
func (c *Clocks) EncodeState(w *snap.Writer) {
	w.U64(c.ticks)
	w.Bool(c.started)
	w.Len32(len(c.rngs))
	for i := range c.rngs {
		w.RNG(&c.rngs[i])
	}
	w.Bools(c.stopped)
}

// DecodeState restores clock state previously written by EncodeState into a
// Clocks value constructed with the same node count.
func (c *Clocks) DecodeState(r *snap.Reader) error {
	ticks := r.U64()
	started := r.Bool()
	n := r.Len32(32)
	if err := r.Err(); err != nil {
		return err
	}
	if n != len(c.rngs) {
		return r.Fail(fmt.Errorf("%w: clock count %d != %d", snap.ErrCorrupt, n, len(c.rngs)))
	}
	for i := range c.rngs {
		if err := r.ReadRNG(&c.rngs[i]); err != nil {
			return err
		}
	}
	stopped := r.Bools()
	if err := r.Err(); err != nil {
		return err
	}
	if len(stopped) != len(c.stopped) {
		return r.Fail(fmt.Errorf("%w: clock stop-flag count %d != %d", snap.ErrCorrupt, len(stopped), len(c.stopped)))
	}
	copy(c.stopped, stopped)
	c.ticks = ticks
	c.started = started
	return nil
}

// Perturb folds a divergence label into every per-node clock generator; see
// xrand.RNG.Perturb (each generator's own state keeps the perturbed streams
// distinct across nodes). Label 0 is the identity.
func (c *Clocks) Perturb(label uint64) {
	if label == 0 {
		return
	}
	for i := range c.rngs {
		c.rngs[i].Perturb(label)
	}
}
