package xrand

import (
	"fmt"
	"math/bits"
)

// This file implements the bulk draw primitives behind the repository's
// batched sampling fast paths (topo.BatchSampler, the synchronous round
// kernels' chunked draws). Every Fill* function is defined by one invariant:
//
//	Filling a slice of length m consumes the generator stream exactly as m
//	scalar calls of the corresponding method would, and writes the exact
//	values those calls would have returned.
//
// That scalar-equivalence invariant is what keeps the golden kernel digests
// (TestKernelGolden) and snapshot roundtrips valid while the hot loops move
// to batches: a batched run and a scalar run are byte-identical, so batching
// is purely a performance choice. It is pinned draw-for-draw by
// TestFillEquivalence and, through the topology layer, by
// topo.TestSampleNeighborsEquivalence.
//
// The speed of the batch forms comes from keeping the xoshiro state in
// locals across the whole slice — the scalar methods reload and store the
// four state words on every call.

// FillExp fills dst with Exp(1) samples, advancing the stream exactly as
// len(dst) Exp(1) calls; x/1 == x, so value/λ is the Exp(λ) call's value.
func (r *RNG) FillExp(dst []float64) {
	s0, s1, s2, s3 := r.s0, r.s1, r.s2, r.s3
	for i := range dst {
		u, n0, n1, n2, n3 := next(s0, s1, s2, s3)
		if j, k := uint32(u), uint8(u>>32); j < zigK[k] {
			dst[i] = float64(j) * zigW[k]
			s0, s1, s2, s3 = n0, n1, n2, n3
			continue
		}
		r.s0, r.s1, r.s2, r.s3 = s0, s1, s2, s3 // ~1.1% of draws: Exp redraws u
		dst[i] = r.Exp(1)
		s0, s1, s2, s3 = r.s0, r.s1, r.s2, r.s3
	}
	r.s0, r.s1, r.s2, r.s3 = s0, s1, s2, s3
}

// next is the xoshiro256++ step over explicit state words, the register
// form shared by the fill loops.
func next(s0, s1, s2, s3 uint64) (out, n0, n1, n2, n3 uint64) {
	out = bits.RotateLeft64(s0+s3, 23) + s0
	t := s1 << 17
	s2 ^= s0
	s3 ^= s1
	s1 ^= s2
	s0 ^= s3
	s2 ^= t
	s3 = bits.RotateLeft64(s3, 45)
	return out, s0, s1, s2, s3
}

// FillInt32n fills dst with uniform values in [0, n), advancing the stream
// exactly as len(dst) Intn(n) calls. It is the form the topology batch
// samplers use (node ids are int32 throughout the event kernel); n must fit
// an int32. It panics if n <= 0.
func (r *RNG) FillInt32n(n int32, dst []int32) {
	if n <= 0 {
		panic(fmt.Sprintf("xrand: FillInt32n with non-positive n=%d", n))
	}
	un := uint64(n)
	s0, s1, s2, s3 := r.s0, r.s1, r.s2, r.s3
	for i := range dst {
		var v uint64
		v, s0, s1, s2, s3 = next(s0, s1, s2, s3)
		hi, lo := bits.Mul64(v, un)
		if lo < un {
			// The rejection threshold -n % n costs a hardware divide;
			// computing it lazily (exactly like the scalar path) keeps short
			// fills divide-free and cannot change which draws are rejected —
			// the threshold is a pure function of n.
			threshold := -un % un
			for lo < threshold {
				v, s0, s1, s2, s3 = next(s0, s1, s2, s3)
				hi, lo = bits.Mul64(v, un)
			}
		}
		dst[i] = int32(hi)
	}
	r.s0, r.s1, r.s2, r.s3 = s0, s1, s2, s3
}
