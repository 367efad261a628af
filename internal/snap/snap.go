// Package snap provides the binary state-serialization substrate of the
// checkpoint/restore subsystem: a little-endian, length-checked byte codec
// (Writer/Reader) shared by the simulation kernel and every engine, and the
// Checkpoint request record engines consume.
//
// The codec is deliberately primitive: fixed-width integers, IEEE-754
// float64 bits and length-prefixed slices, no reflection and no varints.
// Every field an engine serializes is either plain data already (the typed
// event heap, struct-of-arrays node state, xoshiro RNG words) or is written
// in a canonical order (maps iterated in a deterministic key order by the
// caller), so encoding the same state twice yields identical bytes — which
// is what lets snapshot blobs themselves be golden-tested.
//
// Reading is sticky-error: a Reader records the first failure and every
// subsequent read returns zero values, so decoders can be written as
// straight-line field reads with a single Err check at the end. A truncated
// or oversized input surfaces as ErrTruncated, an impossible value (e.g. a
// negative length) as ErrCorrupt; neither ever panics, which the public
// decoder's fuzz test pins.
package snap

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
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

// Capturing reports whether a capture was requested.
func (c *Checkpoint) Capturing() bool { return c != nil && c.Sink != nil && c.At > 0 }

// Restoring reports whether a restore payload is present.
func (c *Checkpoint) Restoring() bool { return c != nil && c.Restore != nil }

// Writer accumulates a little-endian binary encoding. The zero value is
// ready to use.
type Writer struct {
	buf []byte
}

// Bytes returns the accumulated encoding.
func (w *Writer) Bytes() []byte { return w.buf }

// Len returns the number of bytes written so far.
func (w *Writer) Len() int { return len(w.buf) }

// U8 writes one byte.
func (w *Writer) U8(v uint8) { w.buf = append(w.buf, v) }

// Bool writes a bool as one byte (0 or 1).
func (w *Writer) Bool(v bool) {
	if v {
		w.U8(1)
	} else {
		w.U8(0)
	}
}

// U32 writes a fixed 32-bit unsigned integer.
func (w *Writer) U32(v uint32) { w.buf = binary.LittleEndian.AppendUint32(w.buf, v) }

// U64 writes a fixed 64-bit unsigned integer.
func (w *Writer) U64(v uint64) { w.buf = binary.LittleEndian.AppendUint64(w.buf, v) }

// I32 writes a fixed 32-bit signed integer.
func (w *Writer) I32(v int32) { w.U32(uint32(v)) }

// I64 writes a fixed 64-bit signed integer.
func (w *Writer) I64(v int64) { w.U64(uint64(v)) }

// Int writes an int as 64 bits.
func (w *Writer) Int(v int) { w.I64(int64(v)) }

// F64 writes a float64 as its IEEE-754 bit pattern, preserving it exactly.
func (w *Writer) F64(v float64) { w.U64(math.Float64bits(v)) }

// Len32 writes a slice length. Lengths get their own method so readers can
// bound-check them against the remaining input.
func (w *Writer) Len32(n int) {
	if n < 0 || n > math.MaxInt32 {
		panic(fmt.Sprintf("snap: slice length %d out of range", n))
	}
	w.U32(uint32(n))
}

// I32s writes a length-prefixed []int32.
func (w *Writer) I32s(vs []int32) {
	w.Len32(len(vs))
	for _, v := range vs {
		w.I32(v)
	}
}

// I8s writes a length-prefixed []int8.
func (w *Writer) I8s(vs []int8) {
	w.Len32(len(vs))
	for _, v := range vs {
		w.U8(uint8(v))
	}
}

// Ints writes a length-prefixed []int (64-bit elements).
func (w *Writer) Ints(vs []int) {
	w.Len32(len(vs))
	for _, v := range vs {
		w.Int(v)
	}
}

// U32s writes a length-prefixed []uint32.
func (w *Writer) U32s(vs []uint32) {
	w.Len32(len(vs))
	for _, v := range vs {
		w.U32(v)
	}
}

// U64s writes a length-prefixed []uint64.
func (w *Writer) U64s(vs []uint64) {
	w.Len32(len(vs))
	for _, v := range vs {
		w.U64(v)
	}
}

// F64s writes a length-prefixed []float64.
func (w *Writer) F64s(vs []float64) {
	w.Len32(len(vs))
	for _, v := range vs {
		w.F64(v)
	}
}

// Bools writes a length-prefixed []bool.
func (w *Writer) Bools(vs []bool) {
	w.Len32(len(vs))
	for _, v := range vs {
		w.Bool(v)
	}
}

// Bytes writes a length-prefixed byte slice.
func (w *Writer) BytesSlice(vs []byte) {
	w.Len32(len(vs))
	w.buf = append(w.buf, vs...)
}

// Reader decodes a Writer encoding with sticky error handling: after the
// first failure every read returns the zero value and Err reports the
// failure.
type Reader struct {
	buf []byte
	off int
	err error
}

// NewReader returns a reader over buf.
func NewReader(buf []byte) *Reader { return &Reader{buf: buf} }

// Err returns the first decoding failure, or nil.
func (r *Reader) Err() error { return r.err }

// Remaining returns the number of unread bytes.
func (r *Reader) Remaining() int { return len(r.buf) - r.off }

// Fail records err (the first one sticks) and returns it.
func (r *Reader) Fail(err error) error {
	if r.err == nil {
		r.err = err
	}
	return r.err
}

// take returns the next n bytes, or nil after recording ErrTruncated.
func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || r.off+n > len(r.buf) || r.off+n < r.off {
		r.Fail(fmt.Errorf("%w: need %d bytes at offset %d of %d", ErrTruncated, n, r.off, len(r.buf)))
		return nil
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

// U8 reads one byte.
func (r *Reader) U8() uint8 {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// Bool reads a bool; any value other than 0 or 1 is corrupt.
func (r *Reader) Bool() bool {
	v := r.U8()
	if v > 1 {
		r.Fail(fmt.Errorf("%w: bool byte %d", ErrCorrupt, v))
		return false
	}
	return v == 1
}

// U32 reads a fixed 32-bit unsigned integer.
func (r *Reader) U32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// U64 reads a fixed 64-bit unsigned integer.
func (r *Reader) U64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// I32 reads a fixed 32-bit signed integer.
func (r *Reader) I32() int32 { return int32(r.U32()) }

// I64 reads a fixed 64-bit signed integer.
func (r *Reader) I64() int64 { return int64(r.U64()) }

// Int reads an int written by Writer.Int.
func (r *Reader) Int() int { return int(r.I64()) }

// F64 reads a float64 bit pattern.
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// Len32 reads a slice length and bounds it against the remaining input,
// assuming each element occupies at least elemSize bytes; an impossible
// length is recorded as ErrTruncated so a hostile header cannot force a
// huge allocation.
func (r *Reader) Len32(elemSize int) int {
	n := int(r.U32())
	if r.err != nil {
		return 0
	}
	if elemSize < 1 {
		elemSize = 1
	}
	if n*elemSize > r.Remaining() {
		r.Fail(fmt.Errorf("%w: declared length %d exceeds %d remaining bytes", ErrTruncated, n, r.Remaining()))
		return 0
	}
	return n
}

// I32s reads a length-prefixed []int32.
func (r *Reader) I32s() []int32 {
	n := r.Len32(4)
	if r.err != nil {
		return nil
	}
	vs := make([]int32, n)
	for i := range vs {
		vs[i] = r.I32()
	}
	return vs
}

// I8s reads a length-prefixed []int8.
func (r *Reader) I8s() []int8 {
	n := r.Len32(1)
	if r.err != nil {
		return nil
	}
	vs := make([]int8, n)
	for i := range vs {
		vs[i] = int8(r.U8())
	}
	return vs
}

// Ints reads a length-prefixed []int.
func (r *Reader) Ints() []int {
	n := r.Len32(8)
	if r.err != nil {
		return nil
	}
	vs := make([]int, n)
	for i := range vs {
		vs[i] = r.Int()
	}
	return vs
}

// U32s reads a length-prefixed []uint32.
func (r *Reader) U32s() []uint32 {
	n := r.Len32(4)
	if r.err != nil {
		return nil
	}
	vs := make([]uint32, n)
	for i := range vs {
		vs[i] = r.U32()
	}
	return vs
}

// U64s reads a length-prefixed []uint64.
func (r *Reader) U64s() []uint64 {
	n := r.Len32(8)
	if r.err != nil {
		return nil
	}
	vs := make([]uint64, n)
	for i := range vs {
		vs[i] = r.U64()
	}
	return vs
}

// F64s reads a length-prefixed []float64.
func (r *Reader) F64s() []float64 {
	n := r.Len32(8)
	if r.err != nil {
		return nil
	}
	vs := make([]float64, n)
	for i := range vs {
		vs[i] = r.F64()
	}
	return vs
}

// Bools reads a length-prefixed []bool.
func (r *Reader) Bools() []bool {
	n := r.Len32(1)
	if r.err != nil {
		return nil
	}
	vs := make([]bool, n)
	for i := range vs {
		vs[i] = r.Bool()
	}
	return vs
}

// BytesSlice reads a length-prefixed byte slice (copied out of the input).
func (r *Reader) BytesSlice() []byte {
	n := r.Len32(1)
	if r.err != nil {
		return nil
	}
	b := r.take(n)
	if b == nil {
		return nil
	}
	return append([]byte(nil), b...)
}

// Finish returns ErrCorrupt if undecoded bytes remain, or the sticky error.
// Call it after the last field read to reject padded or mismatched input.
func (r *Reader) Finish() error {
	if r.err != nil {
		return r.err
	}
	if r.Remaining() != 0 {
		return r.Fail(fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, r.Remaining()))
	}
	return nil
}
