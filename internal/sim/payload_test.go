package sim

import (
	"testing"

	"plurality/internal/snap"
)

// TestPayloadArenaRecycle pins the free-list behavior: slots are reused
// LIFO before the arena grows.
func TestPayloadArenaRecycle(t *testing.T) {
	var a PayloadArena
	s0 := a.Put(Event{Kind: 1, Node: 10})
	s1 := a.Put(Event{Kind: 2, Node: 20})
	if ev := a.Take(s0); ev.Kind != 1 || ev.Node != 10 {
		t.Fatalf("Take(s0) = %+v", ev)
	}
	// The freed slot is recycled before the arena grows.
	s2 := a.Put(Event{Kind: 3, Node: 30})
	if s2 != s0 {
		t.Errorf("recycled slot %d, want %d", s2, s0)
	}
	if ev := a.Take(s1); ev.Kind != 2 {
		t.Fatalf("Take(s1) = %+v", ev)
	}
	if ev := a.Take(s2); ev.Kind != 3 {
		t.Fatalf("Take(s2) = %+v", ev)
	}
	if s3 := a.Put(Event{}); s3 != s2 && s3 != s1 {
		t.Errorf("drained arena grew to slot %d", s3)
	}
}

// TestPayloadArenaRoundtrip pins that encode → decode preserves slot ids,
// the property that keeps parked-event references in the kernel heap valid
// across a snapshot.
func TestPayloadArenaRoundtrip(t *testing.T) {
	var a PayloadArena
	s0 := a.Put(Event{Kind: 7, Node: 1, A: 2, B: 3, C: 4})
	s1 := a.Put(Event{Kind: 8, Node: 5})
	a.Take(s0) // leave a hole in the free list

	w := snap.NewEncoder()
	a.Layout(w)
	var b PayloadArena
	r := snap.NewDecoder(w.Bytes())
	b.Layout(r)
	if err := r.Finish(); err != nil {
		t.Fatal(err)
	}
	// The hole left by s0 is recycled first, as in the original arena.
	if s := b.Put(Event{}); s != s0 {
		t.Errorf("restored arena filled slot %d first, want the freed %d", s, s0)
	}
	if ev := b.Take(s1); ev.Kind != 8 || ev.Node != 5 {
		t.Errorf("restored slot %d holds %+v, want the parked event", s1, ev)
	}
}

// TestPayloadArenaDecodeRejectsBadFreeList pins the corruption guards:
// out-of-range and duplicate free slots fail typed.
func TestPayloadArenaDecodeRejectsBadFreeList(t *testing.T) {
	encode := func(nSlots int, free []int32) []byte {
		a := PayloadArena{slots: make([]Event, nSlots), free: free}
		w := snap.NewEncoder()
		a.Layout(w)
		return w.Bytes()
	}
	for name, blob := range map[string][]byte{
		"slot out of range": encode(2, []int32{5}),
		"negative slot":     encode(2, []int32{-1}),
		"duplicate slot":    encode(2, []int32{0, 0}),
		"free exceeds pool": encode(1, []int32{0, 0, 0}),
	} {
		var a PayloadArena
		r := snap.NewDecoder(blob)
		a.Layout(r)
		if err := r.Err(); err == nil {
			t.Errorf("%s: decode succeeded, want error", name)
		}
	}
}
