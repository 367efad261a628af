package sim

import (
	"fmt"

	"plurality/internal/snap"
)

// PayloadArena widens the fixed (Node, A, B, C) event payload: an engine
// parks a full Event in a slot and schedules a small typed "deliver" event
// whose A field carries the slot id; on dispatch it takes the slot back and
// re-dispatches the original event. Slots are append-grown and recycled
// through a free list; they hold plain data, so arenas are captured verbatim
// (slots and free list), which keeps slot ids referenced by pending deliver
// events valid across a snapshot/restore cycle.
//
// The adversary layer is the first user: a delayed message is the original
// event parked in a slot, delivered later by the adversary's deliver event
// (see internal/adversary). The zero value is ready to use.
type PayloadArena struct {
	slots []Event
	free  []int32
}

// Put parks ev in a free slot and returns the slot id.
func (a *PayloadArena) Put(ev Event) int32 {
	if n := len(a.free); n > 0 {
		slot := a.free[n-1]
		a.free = a.free[:n-1]
		a.slots[slot] = ev
		return slot
	}
	a.slots = append(a.slots, ev)
	return int32(len(a.slots) - 1)
}

// Take returns the parked event and recycles the slot. Taking a slot that
// was never Put (or taking it twice) is a programming error; the arena does
// not track per-slot liveness beyond the free list.
func (a *PayloadArena) Take(slot int32) Event {
	ev := a.slots[slot]
	a.slots[slot] = Event{}
	a.free = append(a.free, slot)
	return ev
}

// Live returns the number of currently parked events.
func (a *PayloadArena) Live() int {
	return len(a.slots) - len(a.free)
}

// EncodeState serializes the arena — slots and free list verbatim — into w.
// The encoding preserves slot ids, so deliver events captured by the kernel
// codec keep pointing at the right parked payloads after a restore.
func (a *PayloadArena) EncodeState(w *snap.Writer) {
	w.Len32(len(a.slots))
	for _, ev := range a.slots {
		w.I32(ev.Kind)
		w.I32(ev.Node)
		w.I32(ev.A)
		w.I32(ev.B)
		w.I32(ev.C)
	}
	w.I32s(a.free)
}

// DecodeState restores arena state previously written by EncodeState,
// replacing the receiver's contents.
func (a *PayloadArena) DecodeState(r *snap.Reader) error {
	n := r.Len32(20)
	if err := r.Err(); err != nil {
		return err
	}
	slots := make([]Event, n)
	for i := range slots {
		slots[i] = Event{
			Kind: r.I32(),
			Node: r.I32(),
			A:    r.I32(),
			B:    r.I32(),
			C:    r.I32(),
		}
	}
	free := r.I32s()
	if err := r.Err(); err != nil {
		return err
	}
	if len(free) > len(slots) {
		return r.Fail(fmt.Errorf("%w: arena free list %d exceeds %d slots", snap.ErrCorrupt, len(free), len(slots)))
	}
	seen := make([]bool, len(slots))
	for _, f := range free {
		if f < 0 || int(f) >= len(slots) || seen[f] {
			return r.Fail(fmt.Errorf("%w: bad arena free slot %d", snap.ErrCorrupt, f))
		}
		seen[f] = true
	}
	a.slots = slots
	a.free = free
	return nil
}
