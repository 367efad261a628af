package sim

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"testing"

	"plurality/internal/snap"
)

// pop is one executed event and the virtual time it ran at.
type pop struct {
	at float64
	ev Event
}

// codecWorkload installs a handler on s whose reactions are a pure function
// of the popped event, so the kernel state alone determines the rest of the
// run. Kind 0 re-arms itself and fans out a kind 1 message; delays are
// multiples of 1/8, so equal-time ties are common, some are zero (late
// arrivals into the draining bucket), and some exceed the ladder window
// (overflow). Kind 2 events are far-future singletons.
func codecWorkload(s *Simulator) *[]pop {
	pops := new([]pop)
	s.SetHandler(handlerFunc(func(ev Event) {
		*pops = append(*pops, pop{s.Now(), ev})
		if ev.Kind != 0 || ev.A >= 40 {
			return
		}
		h := ev.Node*5 + ev.A
		s.ScheduleAfter(float64(h%4)*0.25, Event{Kind: 0, Node: ev.Node, A: ev.A + 1})
		delay := float64(h%3) * 0.125
		if h%7 == 0 {
			delay = 1.5
		}
		s.ScheduleAfter(delay, Event{Kind: 1, Node: ev.Node, A: ev.A, B: h})
	}))
	return pops
}

// seedCodecWorkload schedules the workload's initial events.
func seedCodecWorkload(s *Simulator) {
	for v := int32(0); v < 50; v++ {
		s.Schedule(float64(v%4)*0.125, Event{Kind: 0, Node: v})
	}
	s.Schedule(3, Event{Kind: 2, Node: -1})
	s.Schedule(7.5, Event{Kind: 2, Node: -2, C: 9})
}

func encodeKernel(s *Simulator) []byte {
	w := snap.NewEncoder()
	s.Layout(w)
	return w.Bytes()
}

// decodeKernel restores a bare kernel state into a fresh simulator,
// requiring the input to be consumed exactly.
func decodeKernel(state []byte) (*Simulator, error) {
	s := New()
	r := snap.NewDecoder(state)
	s.Layout(r)
	if err := r.Finish(); err != nil {
		return nil, err
	}
	return s, nil
}

// codecBarrierState runs the workload to barrier and returns the
// simulator, the pops so far and the encoded kernel state.
func codecBarrierState(t testing.TB, barrier float64) (*Simulator, *[]pop, []byte) {
	s := New()
	pops := codecWorkload(s)
	seedCodecWorkload(s)
	if err := s.RunContextTo(nil, barrier); err != nil {
		t.Fatal(err)
	}
	return s, pops, encodeKernel(s)
}

// TestKernelStateRoundtrip pins that a bare kernel state — nothing appended
// after it — restores into a fresh simulator whose continuation pops
// exactly the (time, event) sequence of the uninterrupted run, and that the
// restored state re-encodes to the same bytes. The barriers fall between
// and on event times, early and late in the run.
func TestKernelStateRoundtrip(t *testing.T) {
	ref := New()
	want := codecWorkload(ref)
	seedCodecWorkload(ref)
	ref.Run()
	for _, barrier := range []float64{0.01, 0.3, 1.1, 2.5, 3, 4.2, 6.9} {
		t.Run(fmt.Sprint(barrier), func(t *testing.T) {
			checkKernelRoundtrip(t, barrier, *want, ref.Processed())
		})
	}
}

func checkKernelRoundtrip(t *testing.T, barrier float64, want []pop, processed uint64) {
	cut, got, state := codecBarrierState(t, barrier)
	if cut.Pending() == 0 {
		t.Fatalf("no events pending at barrier %v", barrier)
	}
	restored, err := decodeKernel(state)
	if err != nil {
		t.Fatalf("decoding a bare %d-event kernel state: %v", cut.Pending(), err)
	}
	if again := encodeKernel(restored); !bytes.Equal(again, state) {
		t.Fatal("restored kernel state re-encodes to different bytes")
	}
	if restored.Now() != cut.Now() || restored.Pending() != cut.Pending() || restored.Processed() != cut.Processed() {
		t.Fatalf("restored (now, pending, processed) = (%v, %d, %d), captured (%v, %d, %d)",
			restored.Now(), restored.Pending(), restored.Processed(), cut.Now(), cut.Pending(), cut.Processed())
	}
	tail := codecWorkload(restored)
	restored.Run()
	full := append(*got, *tail...)
	if len(full) != len(want) {
		t.Fatalf("restored run popped %d events in total, uninterrupted %d", len(full), len(want))
	}
	for i := range full {
		if full[i] != want[i] {
			t.Fatalf("pop %d: restored %+v, uninterrupted %+v", i, full[i], want[i])
		}
	}
	if restored.Processed() != processed {
		t.Fatalf("processed %d after restore, %d uninterrupted", restored.Processed(), processed)
	}
}

// TestKernelStateHeldTick pins the codec on a state with a held tick: it
// encodes exactly as the same events scheduled all through the ladder,
// encode → decode → encode gives the same bytes, and decoding over a
// simulator that holds a tick discards that tick with the rest.
func TestKernelStateHeldTick(t *testing.T) {
	build := func(hold bool) *Simulator {
		s := New()
		s.Schedule(2, Event{Kind: 1, Node: 1})
		if hold {
			s.scheduleTick(0.5, Event{Node: 7})
		} else {
			s.Schedule(0.5, Event{Node: 7})
		}
		s.Schedule(0.5, Event{Kind: 1, Node: 2})
		s.Schedule(9, Event{Kind: 3, Node: 3})
		return s
	}
	held := build(true)
	if held.heldJ == noTick {
		t.Fatal("tick not held")
	}
	state := encodeKernel(held)
	if !bytes.Equal(state, encodeKernel(build(false))) {
		t.Fatal("a held tick encodes differently from the same tick in the ladder")
	}
	restored, err := decodeKernel(state)
	if err != nil {
		t.Fatal(err)
	}
	if restored.Pending() != 4 {
		t.Fatalf("restored Pending() = %d, want 4", restored.Pending())
	}
	if again := encodeKernel(restored); !bytes.Equal(again, state) {
		t.Fatal("a state with a held tick re-encodes to different bytes")
	}
	over := New()
	over.scheduleTick(0.25, Event{Node: 9})
	r := snap.NewDecoder(state)
	if over.Layout(r); r.Err() != nil {
		t.Fatal(r.Err())
	}
	if again := encodeKernel(over); !bytes.Equal(again, state) || over.Pending() != 4 {
		t.Fatalf("decoding over a held tick kept it: %d pending, want 4", over.Pending())
	}
}

// kernelState hand-encodes a kernel state in Layout's format, events in
// the order given.
func kernelState(now float64, seq uint64, evs ...event) []byte {
	s := New()
	s.now, s.seq = now, seq
	s.overflow, s.pending = evs, len(evs)
	w := snap.NewEncoder()
	s.Layout(w)
	return w.Bytes()
}

// TestKernelDecodeRejects pins that malformed kernel states fail with a
// typed snap error instead of panicking or restoring a state the kernel
// could never have held.
func TestKernelDecodeRejects(t *testing.T) {
	valid := kernelState(1, 3, event{at: 1, seq: 0}, event{at: 2, seq: 2, kind: 4})
	if _, err := decodeKernel(valid); err != nil {
		t.Fatalf("valid hand-encoded state rejected: %v", err)
	}
	cases := []struct {
		name  string
		state []byte
		want  error
	}{
		{"NaN clock", kernelState(math.NaN(), 1), snap.ErrCorrupt},
		{"negative clock", kernelState(-1, 1), snap.ErrCorrupt},
		{"infinite clock", kernelState(math.Inf(1), 1), snap.ErrCorrupt},
		{"event before clock", kernelState(2, 1, event{at: 1.5, seq: 0}), snap.ErrCorrupt},
		{"non-finite event time", kernelState(0, 1, event{at: math.Inf(1), seq: 0}), snap.ErrCorrupt},
		{"negative kind", kernelState(0, 1, event{at: 1, seq: 0, kind: -1}), snap.ErrCorrupt},
		{"seq at next seq", kernelState(0, 2, event{at: 1, seq: 2}), snap.ErrCorrupt},
		{"seq past next seq", kernelState(0, 2, event{at: 1, seq: 9}), snap.ErrCorrupt},
		{"event list cut short", valid[:len(valid)-1], snap.ErrTruncated},
		{"event list missing", valid[:len(valid)-72], snap.ErrTruncated},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := decodeKernel(c.state); !errors.Is(err, c.want) {
				t.Fatalf("decode error %v, want %v", err, c.want)
			}
		})
	}
	for n := 0; n < len(valid); n++ {
		if _, err := decodeKernel(valid[:n]); !errors.Is(err, snap.ErrTruncated) {
			t.Fatalf("%d-byte prefix: decode error %v, want %v", n, err, snap.ErrTruncated)
		}
	}
}

// FuzzKernelDecodeState pins that the kernel decoder never panics on
// arbitrary input, and that any state it accepts re-encodes canonically:
// encode → decode → encode is byte-identical. A restored state must also
// run without panicking, in time order.
func FuzzKernelDecodeState(f *testing.F) {
	for _, barrier := range []float64{0.3, 2.5} {
		_, _, state := codecBarrierState(f, barrier)
		f.Add(state)
	}
	f.Add(kernelState(1, 3, event{at: 1, seq: 0}, event{at: 2, seq: 2, kind: 4}))
	f.Add(encodeKernel(New()))
	f.Fuzz(func(t *testing.T, data []byte) {
		s := New()
		r := snap.NewDecoder(data)
		if s.Layout(r); r.Err() != nil {
			err := r.Err()
			if !errors.Is(err, snap.ErrCorrupt) && !errors.Is(err, snap.ErrTruncated) {
				t.Fatalf("untyped decode error: %v", err)
			}
			return
		}
		first := encodeKernel(s)
		again, err := decodeKernel(first)
		if err != nil {
			t.Fatalf("re-decoding an encoded state: %v", err)
		}
		if second := encodeKernel(again); !bytes.Equal(first, second) {
			t.Fatal("encode → decode → encode is not byte-identical")
		}
		last := s.Now()
		s.SetHandler(handlerFunc(func(Event) {
			if s.Now() < last {
				t.Fatalf("restored run went back in time: %v after %v", s.Now(), last)
			}
			last = s.Now()
		}))
		for i := 0; i < 256 && s.Step(); i++ {
		}
	})
}
