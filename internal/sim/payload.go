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

// Holds reports whether slot is a slot of a, so a restored deliver event
// can be checked before it fires; a nil arena holds none.
func (a *PayloadArena) Holds(slot int32) bool {
	return a != nil && slot >= 0 && int(slot) < len(a.slots)
}

// Layout runs the arena — slots and free list verbatim — through c. The
// encoding preserves slot ids, so deliver events captured by the kernel
// codec keep pointing at the right parked payloads after a restore.
func (a *PayloadArena) Layout(c *snap.Codec) {
	snap.Slice(c, &a.slots, 20, func(c *snap.Codec, ev *Event) {
		c.I32(&ev.Kind)
		c.I32(&ev.Node)
		c.I32(&ev.A)
		c.I32(&ev.B)
		c.I32(&ev.C)
	})
	snap.Words(c, &a.free)
	if !c.Decoding() || c.Err() != nil {
		return
	}
	if len(a.free) > len(a.slots) {
		c.Fail(fmt.Errorf("%w: arena free list %d exceeds %d slots", snap.ErrCorrupt, len(a.free), len(a.slots)))
		return
	}
	seen := make([]bool, len(a.slots))
	for _, f := range a.free {
		if f < 0 || int(f) >= len(a.slots) || seen[f] {
			c.Fail(fmt.Errorf("%w: bad arena free slot %d", snap.ErrCorrupt, f))
			return
		}
		seen[f] = true
	}
}
