// Package sim implements the deterministic discrete-event simulation kernel
// underlying the paper's asynchronous communication model (§3.1): every node
// owns a rate-1 Poisson clock, and opening a communication channel costs an
// independent latency (exponential with rate λ in the paper, generalized
// here to any positive distribution to cover the positive-aging variant).
// The n clocks run as one superposed rate-n process that hands each tick
// to a uniform node (see Clocks), which has the same law and keeps one
// tick pending instead of n.
//
// The kernel is single-threaded and fully deterministic: events execute in
// (time, insertion-sequence) order, so equal-time events replay in the order
// they were scheduled. All stochastic behaviour enters through xrand.RNG
// instances supplied by the caller, which makes whole protocol executions
// reproducible from one seed.
//
// # The (time, seq) invariant
//
// Every push assigns the next value of a monotone sequence counter, and the
// scheduler orders by (at, seq) — a strict total order, because seq is
// unique. Two properties follow, and everything above the kernel leans on
// them: ties between equal-time events are broken by scheduling order
// (never by map iteration, goroutine timing or queue layout), and the pop
// sequence is independent of the queue's internal arrangement — any correct
// priority queue over the same pending set yields the same execution. The
// first makes asynchronous runs reproducible from a seed; the second is
// what lets a restored snapshot rebuild its pending set without changing
// the trajectory, what let the typed kernel rewrite be pinned byte-exact
// against its predecessor (TestKernelGolden), and what let the original
// binary heap be replaced outright by the bucketed event ladder (see
// Simulator) — a pure performance change.
//
// # Event representation
//
// Every scheduled action is an Event: a fixed-size record {Kind, Node, A,
// B, C} stored by value in the ladder's bucket slices and dispatched to the
// engine's EventHandler, so steady-state scheduling performs zero
// allocations — the bucket arrays are the only storage and they reach
// stable high-water capacities after warm-up. Because events are plain
// data, the state codec can serialize the whole pending set: engines
// schedule everything they do — Poisson ticks, channel deliveries,
// recorder ticks and watchdogs — as typed events, and so every engine is
// checkpointable. The superposed clock's next tick is sequenced like any
// other event but parked in one slot beside the ladder (see Simulator),
// and the codec writes it in its (time, seq) place among the rest.
//
// # Snapshot and restore
//
// EncodeState/DecodeState serialize the scheduler — clock, counters, the
// pending event set — and Clocks.EncodeState/DecodeState do the same for
// the Poisson clocks (one generator and the tick counter). Capture happens
// at a barrier, not an event: RunContextTo runs everything scheduled at or
// before t and returns between events, so no sequence number is consumed
// and a run with a (non-halting) capture stays byte-identical to one
// without. Restores re-run the engine's deterministic setup and then
// overwrite mutable state, after which the continuation is bit-exact.
package sim

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"slices"
)

// Event is a scheduled action: a small POD record the engine interprets.
// Kind is an engine-defined discriminant (>= 0), Node the acting node, and
// A, B, C free payload words (sampled partner ids, signal values, ...).
// Engines receive popped events through their EventHandler and switch on
// Kind.
type Event struct {
	// Kind discriminates the event for the engine's dispatch; engines
	// define their own kinds starting at 0.
	Kind int32
	// Node is the node the event concerns (engine-defined; 0 if unused).
	Node int32
	// A, B and C carry event payload (engine-defined; 0 if unused).
	A, B, C int32
}

// EventHandler dispatches events. An engine implements it once and
// installs it with SetHandler; the simulator calls it for every event it
// pops.
type EventHandler interface {
	HandleEvent(ev Event)
}

// event is a queued Event with its total-order key (time, then seq).
type event struct {
	at      float64
	seq     uint64
	kind    int32
	node    int32
	a, b, c int32
}

// Ladder geometry: virtual time is cut into buckets of width 1/1024 (a
// power of two, so the time→bucket mapping is exact float arithmetic) and
// the ring covers 256 of them — a quarter-time-unit window. The window is a
// memory/scan trade: ring slots retain the capacity of the fullest bucket
// they ever hosted (occupancy-profiled at ~2.5·n/1024 per slot for the
// leader engine at n=10⁶, independent of ring length), so a wider window
// costs proportionally more steady-state memory, while events beyond the
// window wait in the overflow list and are rescanned once per window
// rebuild — a sequential sweep, milliseconds per simulated time unit at
// million-node scale against seconds of pop work. Ring occupancy and
// overflow occupancy are anti-correlated (the overflow peaks exactly when
// the ring has drained), so shortening the ring cuts the resident second
// tier without growing the first.
const (
	ladderBuckets = 256        // ring length in buckets (window = 1/4 time unit)
	invLadderW    = 1024.0     // buckets per time unit
	ladderW       = 1.0 / 1024 // bucket width
	maxLadderTime = 1 << 52    // beyond this, times collapse into one far bucket
	farBucket     = int64(1) << 62
	noTick        = int64(math.MaxInt64) // heldJ when no tick is held; above every bucket
)

// Simulator is a deterministic discrete-event scheduler over continuous
// virtual time. The zero value is not usable; construct with New.
//
// # The event ladder
//
// Pending events live in a two-tier calendar ("ladder") rather than an
// implicit heap: a binary heap over millions of pending events walks
// log(n) cache-missing levels per operation and was the single largest
// cost of million-node asynchronous runs. The ladder stores events by
// time bucket — cur is the current bucket, sorted by (at, seq) and drained
// sequentially; buckets is a ring of unsorted future buckets the hot path
// appends to in O(1); overflow catches the far tail beyond the ring's
// window and is redistributed as the window advances; near is a small
// binary heap for late arrivals into the bucket currently draining. Because
// bucket time ranges are disjoint and each bucket is sorted by the strict
// total order (at, seq) before draining, the pop sequence is exactly the
// one any correct priority queue produces — the layout is invisible to
// everything above the kernel (TestKernelGolden, snapshot restore).
//
// # The held tick
//
// The superposed Poisson clock (Clocks) keeps exactly one tick pending and
// reschedules it on every pop, so its ticks are a large share of a run's
// events. The next tick skips the ladder: it takes its seq like any push but
// waits in one slot (held), and every pop merges the slot against the
// ladder's front by (at, seq). The ladder is advanced no further than the
// held tick's bucket, so while the tick is earlier than everything in the
// ladder the window stays where it is and later inserts keep landing in
// the ring rather than in the near heap. A second clock on the same
// simulator finds the slot full and goes through the ladder.
type Simulator struct {
	now       float64
	seq       uint64
	handler   EventHandler
	processed uint64
	stopped   bool
	pending   int

	cur       []event   // current bucket, sorted ascending by (at, seq)
	curPos    int       // drain position in cur
	curIdx    int64     // absolute index of the current bucket
	winHi     int64     // exclusive upper bucket bound of the ring window
	near      []event   // binary min-heap: late arrivals into the current bucket
	buckets   [][]event // ring of unsorted future buckets; absolute bucket j lives in slot j%ladderBuckets
	inBuckets int       // events across all ring buckets
	overflow  []event   // events at or beyond winHi
	ovMinJ    int64     // minimum bucket index over overflow (MaxInt64 when empty)

	held  event // the clock's next tick, parked outside the ladder (see scheduleTick)
	heldJ int64 // bucketOf(held.at), or noTick when the slot is empty
}

// New returns an empty simulator positioned at virtual time 0.
func New() *Simulator {
	return &Simulator{
		buckets: make([][]event, ladderBuckets),
		winHi:   ladderBuckets,
		ovMinJ:  math.MaxInt64,
		heldJ:   noTick,
	}
}

// SetHandler installs the event dispatcher. It must be set before the
// first event fires.
func (s *Simulator) SetHandler(h EventHandler) { s.handler = h }

// Reserve hints the expected pending-event population. Engines call it with
// a small multiple of the node count (every node keeps a bounded number of
// in-flight channel events queued); the ladder uses the hint to pre-size
// its bucket arrays and the overflow tail, so warm-up performs one
// allocation per tier instead of a doubling cascade. The overflow carries
// every pending event beyond the ring window — the
// majority, under mean-1 latencies; just before a window rebuild it holds
// essentially the whole pending set — which is why it gets the full hint,
// exactly the single array the pre-ladder binary heap reserved.
func (s *Simulator) Reserve(n int) {
	if cap(s.overflow) < n {
		ov := make([]event, len(s.overflow), n)
		copy(ov, s.overflow)
		s.overflow = ov
	}
	// A ring slot holds at most one bucket-width's share of the pending
	// population, so size per slot from the hint divided by buckets-per-unit
	// (not ring length). Occupancy fluctuates around that mean like a
	// Poisson count; mean + 4σ headroom keeps the maximum over the ring from
	// drifting past the cap. All slots are carved from one slab: one
	// allocation instead of one per slot, and no doubling cascade.
	per := n / int(invLadderW)
	if per < 1 {
		return
	}
	per += 4*isqrt(per) + 8
	slab := make([]event, 0, ladderBuckets*per)
	for i := range s.buckets {
		if cap(s.buckets[i]) >= per || len(s.buckets[i]) > per {
			continue
		}
		b := slab[i*per : i*per : (i+1)*per]
		b = append(b, s.buckets[i]...)
		s.buckets[i] = b
	}
}

// isqrt returns ⌊√n⌋ for small non-negative n (Newton iteration).
func isqrt(n int) int {
	if n < 2 {
		return n
	}
	x := n
	y := (x + 1) / 2
	for y < x {
		x = y
		y = (x + n/x) / 2
	}
	return x
}

// Now returns the current virtual time.
func (s *Simulator) Now() float64 { return s.now }

// Processed returns the number of events executed so far; experiments
// report it as a proxy for simulated work.
func (s *Simulator) Processed() uint64 { return s.processed }

// Pending returns the number of events currently scheduled.
func (s *Simulator) Pending() int { return s.pending }

// checkTime panics on causality violations and non-finite times: the model
// has no time travel, so such a call is always a protocol bug worth failing
// loudly on.
func (s *Simulator) checkTime(t float64) {
	if t < s.now {
		panic(fmt.Sprintf("sim: scheduling at %v before now %v", t, s.now))
	}
	if math.IsNaN(t) || math.IsInf(t, 0) {
		panic(fmt.Sprintf("sim: scheduling at non-finite time %v", t))
	}
}

// push assigns the next sequence number and files the event into the
// ladder. This is the single scheduling primitive; it allocates only when a
// bucket's array grows past its high-water capacity.
func (s *Simulator) push(e event) {
	e.seq = s.seq
	s.seq++
	s.insert(e)
}

// Schedule enqueues ev at absolute virtual time t. Kinds must be
// non-negative, the same range DecodeState accepts, so every state the
// kernel can hold can be captured and restored.
func (s *Simulator) Schedule(t float64, ev Event) {
	s.checkTime(t)
	if ev.Kind < 0 {
		panic(fmt.Sprintf("sim: negative event kind %d", ev.Kind))
	}
	s.push(event{at: t, kind: ev.Kind, node: ev.Node, a: ev.A, b: ev.B, c: ev.C})
}

// scheduleTick is Schedule for the superposed clock's next tick: it takes
// the next seq exactly as push does and parks the tick in the held slot,
// or pushes it into the ladder when the slot is already taken.
func (s *Simulator) scheduleTick(t float64, ev Event) {
	s.checkTime(t)
	if s.heldJ != noTick {
		s.push(event{at: t, kind: ev.Kind, node: ev.Node, a: ev.A, b: ev.B, c: ev.C})
		return
	}
	// Field by field: a composite literal would be built on the stack and
	// copied with wide loads that stall on its narrow stores.
	h := &s.held
	h.at, h.seq = t, s.seq
	h.kind, h.node, h.a, h.b, h.c = ev.Kind, ev.Node, ev.A, ev.B, ev.C
	s.seq++
	s.heldJ = bucketOf(t)
	s.pending++
}

// ScheduleAfter enqueues ev d >= 0 after the current time.
func (s *Simulator) ScheduleAfter(d float64, ev Event) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	s.Schedule(s.now+d, ev)
}

// Step executes the single earliest pending event. It reports whether an
// event was executed (false when the queue is empty or the simulator has
// been stopped).
func (s *Simulator) Step() bool {
	if s.stopped {
		return false
	}
	e, ok := s.popMin()
	if !ok {
		return false
	}
	s.now = e.at
	s.processed++
	s.handler.HandleEvent(Event{Kind: e.kind, Node: e.node, A: e.a, B: e.b, C: e.c})
	return true
}

// Run executes events until the queue drains or Stop is called.
func (s *Simulator) Run() {
	for s.Step() {
	}
}

// RunContext executes events until the queue drains, Stop is called, or ctx
// is cancelled. Cancellation is polled every few hundred events, so a run
// over millions of events still returns promptly; on cancellation the
// simulator is stopped and ctx.Err() is returned. A nil ctx behaves like
// Run.
func (s *Simulator) RunContext(ctx context.Context) error {
	if ctx == nil {
		s.Run()
		return nil
	}
	for i := uint(0); ; i++ {
		if i&255 == 0 {
			select {
			case <-ctx.Done():
				s.Stop()
				return ctx.Err()
			default:
			}
		}
		if !s.Step() {
			return nil
		}
	}
}

// Stop halts the simulation: no further events run. Pending events remain
// queued so diagnostics can inspect them; Resume is intentionally absent —
// a stopped run is finished.
func (s *Simulator) Stop() { s.stopped = true }

// Stopped reports whether Stop has been called.
func (s *Simulator) Stopped() bool { return s.stopped }

// --- ladder primitives ---
//
// The (at, seq) key is a strict total order — seq is unique — so the pop
// sequence is implementation-independent: any correct priority queue over
// the same pending set yields the same execution order, which is what the
// golden kernel-equivalence tests pin. The ladder exploits that freedom
// for cache locality: scheduling is an O(1) append to one bucket tail,
// popping is a sequential read of the sorted current bucket, and the only
// logarithmic work left is one in-cache sort per bucket as it becomes
// current — versus the log(pending) cache-missing level walks of an
// implicit heap over a hundred-MB event array.

// eventLess orders events by the (at, seq) key.
func eventLess(a, b event) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// bucketOf maps a virtual time to its absolute ladder bucket. The width is
// a power of two, so the mapping is exact float arithmetic: every t lands
// in exactly the bucket whose [j·w, (j+1)·w) range contains it, which is
// what makes per-bucket sorting equivalent to a global sort. Times past
// maxLadderTime collapse into one far bucket — they still sort correctly
// against each other when that bucket is reached (in practice: never;
// horizons are many orders of magnitude smaller).
func bucketOf(t float64) int64 {
	if t >= maxLadderTime {
		return farBucket
	}
	return int64(t * invLadderW)
}

// insert files an already-sequenced event into the ladder tier its time
// belongs to: the near heap for the bucket currently draining, a ring
// bucket inside the window, or the overflow tail.
func (s *Simulator) insert(e event) {
	s.pending++
	j := bucketOf(e.at)
	switch {
	case j <= s.curIdx:
		s.nearPush(e)
	case j < s.winHi:
		slot := int(j & (ladderBuckets - 1))
		s.buckets[slot] = append(s.buckets[slot], e)
		s.inBuckets++
	default:
		s.overflow = append(s.overflow, e)
		if j < s.ovMinJ {
			s.ovMinJ = j
		}
	}
}

// ensure advances the ladder until its earliest event is reachable
// through cur or near, but not past bucket limit. It reports false when the
// ladder holds no event at or before bucket limit; every ladder event is
// then in a later bucket. Pops pass the held tick's bucket (noTick, above
// every bucket, when none is held), so the window never runs ahead of an
// earlier held tick.
//
// The ring is swept bucket by bucket; the overflow list is consulted only
// when the ring runs dry, which rebuilds the window over the earliest
// overflow bucket. Because winHi never decreases and a rebuild absorbs
// everything below the new bound, overflow events can never be overtaken
// by ring events — the invariant overflow ⊆ [winHi, ∞) holds between
// rebuilds.
func (s *Simulator) ensure(limit int64) bool {
	for s.curPos >= len(s.cur) && len(s.near) == 0 {
		if s.curIdx >= limit {
			return false
		}
		if s.inBuckets == 0 {
			if len(s.overflow) == 0 || s.ovMinJ > limit {
				return false
			}
			// Window exhausted: jump it to the earliest overflow event and
			// refile everything that now fits (one sequential sweep).
			s.curIdx = s.ovMinJ - 1
			s.rebuildWindow()
			continue
		}
		s.curIdx++
		slot := int(s.curIdx & (ladderBuckets - 1))
		b := s.buckets[slot]
		if len(b) == 0 {
			continue
		}
		s.inBuckets -= len(b)
		s.buckets[slot] = s.cur[:0] // recycle the drained array as a future bucket
		sortEvents(b)
		s.cur = b
		s.curPos = 0
	}
	return true
}

// ladderFront returns the ladder's earliest event and whether it is the
// near heap's top rather than cur's. ensure must have reported true.
func (s *Simulator) ladderFront() (*event, bool) {
	if len(s.near) > 0 && (s.curPos >= len(s.cur) || eventLess(s.near[0], s.cur[s.curPos])) {
		return &s.near[0], true
	}
	return &s.cur[s.curPos], false
}

// popMin removes and returns the earliest pending event, the held tick
// included. It reports false when nothing is pending.
func (s *Simulator) popMin() (event, bool) {
	if !s.ensure(s.heldJ) {
		if s.heldJ == noTick {
			return event{}, false
		}
		return s.popHeld(), true
	}
	top, fromNear := s.ladderFront()
	if s.heldJ != noTick && eventLess(s.held, *top) {
		return s.popHeld(), true
	}
	s.pending--
	if fromNear {
		return s.nearPop(), true
	}
	s.curPos++
	return *top, true
}

// popHeld empties the held slot and returns its tick.
func (s *Simulator) popHeld() event {
	s.pending--
	s.heldJ = noTick
	return s.held
}

// peekAt returns the time of the earliest pending event.
func (s *Simulator) peekAt() (float64, bool) {
	if !s.ensure(s.heldJ) {
		return s.held.at, s.heldJ != noTick
	}
	top, _ := s.ladderFront()
	if s.heldJ != noTick && s.held.at < top.at {
		return s.held.at, true
	}
	return top.at, true
}

// rebuildWindow re-anchors the ring window right above curIdx and refiles
// every overflow event that fits. One sequential sweep per window
// revolution — tens of milliseconds per simulated window at million-node
// scale, against seconds of pop work.
func (s *Simulator) rebuildWindow() {
	s.winHi = s.curIdx + 1 + ladderBuckets
	kept := s.overflow[:0]
	s.ovMinJ = math.MaxInt64
	for _, e := range s.overflow {
		j := bucketOf(e.at)
		if j < s.winHi {
			slot := int(j & (ladderBuckets - 1))
			s.buckets[slot] = append(s.buckets[slot], e)
			s.inBuckets++
			continue
		}
		kept = append(kept, e)
		if j < s.ovMinJ {
			s.ovMinJ = j
		}
	}
	s.overflow = kept
}

// sortEvents sorts one bucket ascending by (at, seq) before it drains —
// the only super-constant work per event left in the scheduler. It is a
// hand-rolled introsort so the comparator inlines (the generic library
// sort pays an indirect call per comparison, which at millions of sorted
// events per second was the scheduler's largest remaining cost); keys are
// strictly distinct (seq is unique), which keeps the Hoare partition
// simple. A depth limit delegates pathological inputs to the library sort.
func sortEvents(b []event) {
	if len(b) < 2 {
		return
	}
	depth := 2 * bits.Len(uint(len(b)))
	qsortEvents(b, depth)
}

func qsortEvents(b []event, depth int) {
	for len(b) > 24 {
		if depth == 0 {
			slices.SortFunc(b, func(x, y event) int {
				if eventLess(x, y) {
					return -1
				}
				return 1
			})
			return
		}
		depth--
		p := partitionEvents(b)
		// Recurse into the smaller half, loop on the larger: O(log n) stack.
		if p < len(b)-p-1 {
			qsortEvents(b[:p+1], depth)
			b = b[p+1:]
		} else {
			qsortEvents(b[p+1:], depth)
			b = b[:p+1]
		}
	}
	insertionSortEvents(b)
}

// partitionEvents performs a Hoare partition around a median-of-three
// pivot and returns the split index j: everything in b[:j+1] precedes
// everything in b[j+1:].
func partitionEvents(b []event) int {
	n := len(b)
	m := n / 2
	if eventLess(b[m], b[0]) {
		b[m], b[0] = b[0], b[m]
	}
	if eventLess(b[n-1], b[0]) {
		b[n-1], b[0] = b[0], b[n-1]
	}
	if eventLess(b[n-1], b[m]) {
		b[n-1], b[m] = b[m], b[n-1]
	}
	pivot := b[m]
	i, j := 0, n-1
	for {
		for eventLess(b[i], pivot) {
			i++
		}
		for eventLess(pivot, b[j]) {
			j--
		}
		if i >= j {
			return j
		}
		b[i], b[j] = b[j], b[i]
		i++
		j--
	}
}

func insertionSortEvents(b []event) {
	for i := 1; i < len(b); i++ {
		e := b[i]
		j := i - 1
		for j >= 0 && eventLess(e, b[j]) {
			b[j+1] = b[j]
			j--
		}
		b[j+1] = e
	}
}

// nearPush adds a late arrival to the small binary heap merged against the
// draining bucket.
func (s *Simulator) nearPush(e event) {
	q := append(s.near, e)
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !eventLess(e, q[parent]) {
			break
		}
		q[i] = q[parent]
		i = parent
	}
	q[i] = e
	s.near = q
}

// nearPop removes the minimum of the near heap.
func (s *Simulator) nearPop() event {
	q := s.near
	top := q[0]
	n := len(q) - 1
	e := q[n]
	s.near = q[:n]
	if n > 0 {
		q = q[:n]
		i := 0
		for {
			child := 2*i + 1
			if child >= n {
				break
			}
			if r := child + 1; r < n && eventLess(q[r], q[child]) {
				child = r
			}
			if eventLess(e, q[child]) {
				break
			}
			q[i] = q[child]
			i = child
		}
		q[i] = e
	}
	return top
}
