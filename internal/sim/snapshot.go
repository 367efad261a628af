package sim

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"

	"plurality/internal/snap"
)

// Layout runs the full scheduler state — virtual clock, sequence and
// processed counters, and the pending event set, held tick included —
// through c. Pending events are written in (at, seq) order, the order they
// will pop in, so the bytes depend only on the simulated state and not on
// the ladder's layout or on whether a tick is held: a state captured after
// a restore encodes exactly as the uninterrupted run's state does.
//
// Decoding discards whatever was scheduled on s before the call. Because
// the (time, seq) key is a strict total order, the restored scheduler pops
// in exactly the captured order regardless of its internal layout.
func (s *Simulator) Layout(c *snap.Codec) {
	now, seq, processed, stopped := s.now, s.seq, s.processed, s.stopped
	var queue []event
	if !c.Decoding() {
		queue = s.queue()
	}
	c.F64(&now)
	c.U64(&seq)
	c.U64(&processed)
	c.Bool(&stopped)
	// An encoded event is F64 at, U64 seq and five I32 fields: a fixed
	// 36-byte record, handled in place on this hot path.
	n := len(queue)
	c.Len32(&n, 36)
	if c.Decoding() && c.Err() == nil {
		queue = make([]event, n)
	}
	b, dec := c.Raw(36*n), c.Decoding()
	for i := 0; i < n && b != nil; i++ {
		e, r := &queue[i], b[36*i:36*i+36]
		at := math.Float64bits(e.at)
		snap.Word64(dec, r[0:], &at)
		e.at = math.Float64frombits(at)
		snap.Word64(dec, r[8:], &e.seq)
		snap.Word32(dec, r[16:], &e.kind)
		snap.Word32(dec, r[20:], &e.node)
		snap.Word32(dec, r[24:], &e.a)
		snap.Word32(dec, r[28:], &e.b)
		snap.Word32(dec, r[32:], &e.c)
	}
	if !c.Decoding() || c.Err() != nil {
		return
	}
	if math.IsNaN(now) || math.IsInf(now, 0) || now < 0 {
		c.Fail(fmt.Errorf("%w: clock %v out of range", snap.ErrCorrupt, now))
		return
	}
	for _, e := range queue {
		if math.IsNaN(e.at) || math.IsInf(e.at, 0) || e.at < now {
			c.Fail(fmt.Errorf("%w: event at %v before clock %v", snap.ErrCorrupt, e.at, now))
			return
		}
		if e.kind < 0 {
			c.Fail(fmt.Errorf("%w: negative event kind %d", snap.ErrCorrupt, e.kind))
			return
		}
		if e.seq >= seq {
			c.Fail(fmt.Errorf("%w: event seq %d >= next seq %d", snap.ErrCorrupt, e.seq, seq))
			return
		}
	}
	s.now = now
	s.seq = seq
	s.processed = processed
	s.stopped = stopped
	// Park every event, a captured tick included, in the overflow tier under
	// an empty window that ends at the clock's bucket. All captured times
	// are >= now, so the overflow invariant holds, later inserts land in
	// overflow too, and the first pop rebuilds the window over the earliest
	// event.
	s.cur = s.cur[:0]
	s.curPos = 0
	s.winHi = bucketOf(now)
	s.curIdx = s.winHi - 1
	s.near = s.near[:0]
	for i := range s.buckets {
		s.buckets[i] = s.buckets[i][:0]
	}
	s.inBuckets = 0
	s.heldJ = noTick
	s.overflow = append(s.overflow[:0], queue...)
	s.ovMinJ = math.MaxInt64
	for _, e := range queue {
		s.ovMinJ = min(s.ovMinJ, bucketOf(e.at))
	}
	s.pending = len(queue)
}

// queue returns every pending event, the held tick included, in (at, seq)
// order.
func (s *Simulator) queue() []event {
	queue := make([]event, 0, s.pending)
	s.each(func(e event) bool {
		queue = append(queue, e)
		return true
	})
	// Stable, so a decoded state that repeats a key still re-encodes to
	// its own bytes.
	slices.SortStableFunc(queue, func(a, b event) int {
		return cmp.Or(cmp.Compare(a.at, b.at), cmp.Compare(a.seq, b.seq))
	})
	return queue
}

// each calls f on every pending event, the held tick included, in no
// particular order, and reports whether f accepted them all.
func (s *Simulator) each(f func(event) bool) bool {
	for _, tier := range [][]event{s.cur[s.curPos:], s.near, s.overflow} {
		for _, e := range tier {
			if !f(e) {
				return false
			}
		}
	}
	for _, b := range s.buckets {
		for _, e := range b {
			if !f(e) {
				return false
			}
		}
	}
	return s.heldJ == noTick || f(s.held)
}

// ValidPending reports whether valid accepts every event pending on s and
// every event parked in a (nil on honest runs). Engines call it after a
// restore, with a predicate that range-checks each kind's node and contact
// ids, so a hostile payload fails typed instead of indexing out of range
// when the event fires.
func ValidPending(s *Simulator, a *PayloadArena, valid func(Event) bool) bool {
	if !s.each(func(e event) bool {
		return valid(Event{Kind: e.kind, Node: e.node, A: e.a, B: e.b, C: e.c})
	}) {
		return false
	}
	if a == nil {
		return true
	}
	free := make([]bool, len(a.slots))
	for _, f := range a.free {
		free[f] = true
	}
	for slot, ev := range a.slots {
		if !free[slot] && !valid(ev) {
			return false
		}
	}
	return true
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
// scheduled at or before the due time run first, then (if the run is still
// live and has pending work) capture produces the engine payload, the sink
// receives it, and ck.Halt optionally stops the run before the remainder
// executes; without Halt the capture re-arms at ck.Next. A capture draws no
// randomness and takes no seq, so the run is the same with or without it.
// A nil or capture-less ck degrades to plain RunContext.
func RunCheckpointed(ctx context.Context, s *Simulator, ck *snap.Checkpoint, capture func() []byte) error {
	for due := ck.Due(); !math.IsInf(due, 1); {
		if err := s.RunContextTo(ctx, due); err != nil {
			return err
		}
		if s.Stopped() || s.Pending() == 0 {
			break
		}
		at := s.Now()
		ck.Sink(capture(), at, s.Processed())
		if ck.Halt {
			s.Stop()
			break
		}
		due = ck.Next(at)
	}
	return s.RunContext(ctx)
}

// Layout runs the clocks' mutable state — the tick counter, the started
// flag and the superposed clock's generator — through c. The static node
// count, rate and event kind are reconstructed by the owning engine, which
// also recreates the Clocks value before decoding.
func (c *Clocks) Layout(cd *snap.Codec) {
	cd.U64(&c.ticks)
	cd.Bool(&c.started)
	cd.RNG(&c.rng)
}

// Perturb folds a divergence label into the clock generator; see
// xrand.RNG.Perturb. Label 0 is the identity.
func (c *Clocks) Perturb(label uint64) { c.rng.Perturb(label) }
