// Package snap provides the binary state-serialization substrate of the
// checkpoint/restore subsystem: a little-endian, length-checked two-way
// byte codec (Codec) shared by the simulation kernel and every engine, and
// the Checkpoint request record engines consume.
//
// The codec is deliberately primitive: fixed-width integers, IEEE-754
// float64 bits and length-prefixed slices, no reflection and no varints.
// Every field an engine serializes is either plain data already (the typed
// event heap, struct-of-arrays node state, xoshiro RNG words) or is written
// in a canonical order (maps iterated in a deterministic key order by the
// caller), so encoding the same state twice yields identical bytes — which
// is what lets snapshot blobs themselves be golden-tested.
//
// One Codec value either encodes or decodes, and each of its methods takes
// a pointer to the field it handles: an encoder appends *v, a decoder
// overwrites *v from the input. A snapshot layout is therefore one function
// that lists its fields once and runs in both directions, so the writer and
// the reader of a layout cannot drift apart.
//
// Decoding is sticky-error: a decoder records the first failure, after
// which every method leaves its field untouched, so layouts are written as
// straight-line field lists with a single check at the end (Finish). A
// truncated or oversized input surfaces as ErrTruncated, an impossible
// value (e.g. a negative length) as ErrCorrupt; neither ever panics, which
// the public decoder's and the engine payloads' fuzz tests pin.
package snap

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"unsafe"

	"plurality/internal/xrand"
)

// ErrTruncated reports that the input ended before the declared structure
// was complete.
var ErrTruncated = errors.New("snap: truncated input")

// ErrCorrupt reports structurally impossible input (bad lengths, invalid
// discriminants).
var ErrCorrupt = errors.New("snap: corrupt input")

// Checkpoint is one engine's checkpoint request, threaded through the
// engine Config by the public layer. A nil *Checkpoint (or a zero one)
// disables checkpointing entirely; the hot path never consults it.
type Checkpoint struct {
	// At requests a state capture the first time the engine's native clock
	// (virtual time for event-driven engines, rounds for synchronous ones)
	// reaches this value. For event-driven engines the capture happens
	// after the last event scheduled at or before At has executed; for
	// round-based engines after the first completed round >= At. 0 (or a
	// nil Sink) disables capture. If the run terminates before At, no
	// capture happens.
	At float64
	// Halt stops the run right after the capture; the engine then returns
	// its (partial) result through the normal path. Without Halt the run
	// continues to its regular end and the snapshot is a pure side effect.
	Halt bool
	// Every, when > 0 and Halt is unset, re-arms the capture: after a
	// capture at native time t the next one is due at t + Every, under the
	// same rule as At. That is where a chain of halted runs, each resumed
	// with At = t + Every, would capture, and every capture's payload is
	// the one that chain would have taken. 0 captures once.
	Every float64
	// Sink receives the captured engine state: the engine-encoded payload,
	// the native-clock value at capture, and the number of kernel events
	// executed so far (0 for round-based engines).
	Sink func(state []byte, at float64, events uint64)
	// Restore, when non-nil, resumes the run from a previously captured
	// payload instead of starting fresh: the engine performs its normal
	// deterministic setup, then overwrites all mutable state from the
	// payload. At/Sink still apply to the resumed run, so checkpoint
	// chains are possible.
	Restore []byte
	// Perturb, when non-zero, folds a divergence label into every restored
	// RNG stream (xrand.RNG.Perturb): the resumed run shares the prefix
	// history but draws an independent future — the warm-start primitive
	// for replicated parameter studies. 0 resumes the bit-exact
	// continuation.
	Perturb uint64
}

// Due returns the native time of the first capture, or +Inf when none was
// requested (a nil request, a nil Sink or At 0).
func (c *Checkpoint) Due() float64 {
	if c == nil || c.Sink == nil || c.At <= 0 {
		return math.Inf(1)
	}
	return c.At
}

// Next returns the native time of the capture after one taken at t, or
// +Inf when the request was for a single capture (Every 0, or Halt).
func (c *Checkpoint) Next(t float64) float64 {
	if c.Halt || !(c.Every > 0) {
		return math.Inf(1)
	}
	return t + c.Every
}

// Restoring reports whether a restore payload is present.
func (c *Checkpoint) Restoring() bool { return c != nil && c.Restore != nil }

// Codec encodes fields into, or decodes them from, the little-endian
// snapshot format; see the package documentation.
type Codec struct {
	buf []byte
	off int
	dec bool
	err error
}

// NewEncoder returns a codec that appends every field it is handed.
func NewEncoder() *Codec { return &Codec{} }

// NewDecoder returns a codec that overwrites every field it is handed from
// buf.
func NewDecoder(buf []byte) *Codec { return &Codec{buf: buf, dec: true} }

// Decoding reports whether c reads its fields rather than writing them.
func (c *Codec) Decoding() bool { return c.dec }

// Bytes returns the encoding accumulated so far.
func (c *Codec) Bytes() []byte { return c.buf }

// Err returns the first decoding failure, or nil.
func (c *Codec) Err() error { return c.err }

// Fail records err (the first one sticks) and returns it.
func (c *Codec) Fail(err error) error {
	if c.err == nil {
		c.err = err
	}
	return c.err
}

// Require records an ErrCorrupt failure built from format and args when a
// decoder's ok is false: the hook through which layouts validate what they
// decoded. Encoders ignore it.
func (c *Codec) Require(ok bool, format string, args ...any) {
	if c.dec && !ok {
		c.Fail(fmt.Errorf("%w: "+format, append([]any{ErrCorrupt}, args...)...))
	}
}

// Finish returns ErrCorrupt if a decoder left undecoded bytes, or the
// sticky error. Call it after the last field to reject padded or
// mismatched input.
func (c *Codec) Finish() error {
	if c.err == nil && c.dec && c.off != len(c.buf) {
		c.Fail(fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(c.buf)-c.off))
	}
	return c.err
}

// take returns the next n input bytes, or nil after recording ErrTruncated.
func (c *Codec) take(n int) []byte {
	if c.err != nil {
		return nil
	}
	if n > len(c.buf)-c.off {
		c.Fail(fmt.Errorf("%w: need %d bytes at offset %d of %d", ErrTruncated, n, c.off, len(c.buf)))
		return nil
	}
	b := c.buf[c.off : c.off+n]
	c.off += n
	return b
}

// Bool handles a bool as one byte; a decoded byte other than 0 or 1 is
// corrupt.
func (c *Codec) Bool(v *bool) {
	if !c.dec {
		var u byte
		if *v {
			u = 1
		}
		c.buf = append(c.buf, u)
		return
	}
	if b := c.take(1); b != nil {
		if b[0] > 1 {
			c.Fail(fmt.Errorf("%w: bool byte %d", ErrCorrupt, b[0]))
			return
		}
		*v = b[0] == 1
	}
}

// I32 handles a fixed 32-bit signed integer.
func (c *Codec) I32(v *int32) {
	if !c.dec {
		c.buf = binary.LittleEndian.AppendUint32(c.buf, uint32(*v))
	} else if b := c.take(4); b != nil {
		*v = int32(binary.LittleEndian.Uint32(b))
	}
}

// U64 handles a fixed 64-bit unsigned integer.
func (c *Codec) U64(v *uint64) {
	if !c.dec {
		c.buf = binary.LittleEndian.AppendUint64(c.buf, *v)
	} else if b := c.take(8); b != nil {
		*v = binary.LittleEndian.Uint64(b)
	}
}

// Int handles an int as 64 bits.
func (c *Codec) Int(v *int) {
	u := uint64(*v)
	c.U64(&u)
	*v = int(u)
}

// F64 handles a float64 as its IEEE-754 bit pattern, preserving it exactly.
func (c *Codec) F64(v *float64) {
	u := math.Float64bits(*v)
	c.U64(&u)
	*v = math.Float64frombits(u)
}

// Raw handles n bytes its caller fills or reads itself: an encoder appends
// n bytes and returns them to be filled, a decoder returns the next n input
// bytes, or nil after a failure. Hot fixed-size records use it with Word32
// and Word64 to skip a call per field.
func (c *Codec) Raw(n int) []byte {
	if c.dec {
		return c.take(n)
	}
	c.buf = slices.Grow(c.buf, n)[:len(c.buf)+n]
	return c.buf[len(c.buf)-n:]
}

// Word32 writes *v into b[:4], or reads it from there when dec is set.
func Word32[T ~int32 | ~uint32](dec bool, b []byte, v *T) {
	if dec {
		*v = T(binary.LittleEndian.Uint32(b))
	} else {
		binary.LittleEndian.PutUint32(b, uint32(*v))
	}
}

// Word64 writes *v into b[:8], or reads it from there when dec is set.
func Word64[T ~uint64](dec bool, b []byte, v *T) {
	if dec {
		*v = T(binary.LittleEndian.Uint64(b))
	} else {
		binary.LittleEndian.PutUint64(b, uint64(*v))
	}
}

// Len32 handles a slice length. A decoder bounds it against the remaining
// input, assuming each element occupies at least elemSize bytes, so a
// hostile header cannot force a huge allocation; an impossible length is
// recorded as ErrTruncated and decodes as 0.
func (c *Codec) Len32(n *int, elemSize int) {
	if !c.dec {
		if *n < 0 || *n > math.MaxInt32 {
			panic(fmt.Sprintf("snap: slice length %d out of range", *n))
		}
		c.buf = binary.LittleEndian.AppendUint32(c.buf, uint32(*n))
		return
	}
	*n = 0
	b := c.take(4)
	if b == nil {
		return
	}
	m := int(binary.LittleEndian.Uint32(b))
	if m*max(elemSize, 1) > len(c.buf)-c.off {
		c.Fail(fmt.Errorf("%w: declared length %d exceeds %d remaining bytes", ErrTruncated, m, len(c.buf)-c.off))
		return
	}
	*n = m
}

// Slice handles a length-prefixed slice whose elements occupy at least
// elemSize bytes each, running elem on every element. A decoder fills *vs
// in place when the decoded length equals len(*vs), so slices other code
// aliases keep their backing array, and allocates a new slice otherwise;
// a layout that needs a fixed length checks it afterwards.
func Slice[S ~[]T, T any](c *Codec, vs *S, elemSize int, elem func(*Codec, *T)) {
	n := len(*vs)
	c.Len32(&n, elemSize)
	if c.err != nil {
		return
	}
	if n != len(*vs) {
		*vs = make(S, n)
	}
	for i := range *vs {
		elem(c, &(*vs)[i])
	}
}

// Bools handles a length-prefixed []bool; a decoded byte other than 0 or 1
// is corrupt.
func (c *Codec) Bools(vs *[]bool) {
	n := len(*vs)
	c.Len32(&n, 1)
	if c.err != nil {
		return
	}
	if !c.dec {
		buf := c.buf
		for _, v := range *vs {
			var u byte
			if v {
				u = 1
			}
			buf = append(buf, u)
		}
		c.buf = buf
		return
	}
	b := c.take(n)
	for _, u := range b {
		if u > 1 {
			c.Fail(fmt.Errorf("%w: bool byte %d", ErrCorrupt, u))
			return
		}
	}
	if n != len(*vs) {
		*vs = make([]bool, n)
	}
	for i, u := range b {
		(*vs)[i] = u == 1
	}
}

// Words handles a length-prefixed slice of fixed-width integers, written
// little-endian at their own width, with one loop per direction: the fast
// path of the node-state arrays. It fills in place exactly as Slice does.
func Words[S ~[]T, T ~int8 | ~int32 | ~uint32 | ~int | ~uint64](c *Codec, vs *S) {
	size := int(unsafe.Sizeof(T(0)))
	n := len(*vs)
	c.Len32(&n, size)
	if c.err != nil {
		return
	}
	if !c.dec {
		buf := c.buf
		for _, v := range *vs {
			switch size {
			case 1:
				buf = append(buf, byte(v))
			case 4:
				buf = binary.LittleEndian.AppendUint32(buf, uint32(v))
			default:
				buf = binary.LittleEndian.AppendUint64(buf, uint64(v))
			}
		}
		c.buf = buf
		return
	}
	b := c.take(n * size)
	if c.err != nil {
		return
	}
	if n != len(*vs) {
		*vs = make(S, n)
	}
	for i := range *vs {
		switch size {
		case 1:
			(*vs)[i] = T(int8(b[i]))
		case 4:
			(*vs)[i] = T(int32(binary.LittleEndian.Uint32(b[4*i:])))
		default:
			(*vs)[i] = T(binary.LittleEndian.Uint64(b[8*i:]))
		}
	}
}

// RNG handles the four xoshiro256++ state words of g. A decoder rejects
// the all-zero state as corrupt (it is the fixed point of xoshiro).
func (c *Codec) RNG(g *xrand.RNG) {
	st := g.State()
	for i := range st {
		c.U64(&st[i])
	}
	if c.dec && c.err == nil {
		if err := g.SetState(st); err != nil {
			c.Fail(fmt.Errorf("%w: %v", ErrCorrupt, err))
		}
	}
}
