package xrand

import (
	"math"
	"testing"
)

// TestFillEquivalence pins the batch layer's core invariant draw-for-draw:
// filling a slice of length m consumes the stream exactly as m scalar calls
// and produces the exact values those calls return. Bounds run from 1 to
// the top of the int32 range, around powers of two, and the lengths cross
// the loop boundaries.
func TestFillEquivalence(t *testing.T) {
	bounds := []int32{1, 2, 3, 5, 7, 10, 63, 64, 65, 1000003,
		1 << 30, (1 << 30) + 3, math.MaxInt32}
	lengths := []int{0, 1, 2, 7, 64, 257}
	for _, seed := range []uint64{0, 1, 42, 0xdeadbeef} {
		for _, n := range bounds {
			for _, m := range lengths {
				scalar := New(seed)
				batch := New(seed)

				want := make([]int32, m)
				for i := range want {
					want[i] = int32(scalar.Intn(int(n)))
				}
				got := make([]int32, m)
				batch.FillInt32n(n, got)
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("FillInt32n(%d) seed=%d len=%d: [%d] = %d, scalar %d",
							n, seed, m, i, got[i], want[i])
					}
				}
				if batch.State() != scalar.State() {
					t.Fatalf("FillInt32n(%d) seed=%d len=%d: stream position diverged", n, seed, m)
				}
			}
		}
	}
}

// TestFillExpEquivalence pins FillExp against scalar Exp(1) calls, and
// its values divided by λ against Exp(λ). Ten thousand draws cross the
// ziggurat's wedge and tail branches (about 1.1% of draws) many times.
func TestFillExpEquivalence(t *testing.T) {
	for _, lambda := range []float64{1, 0.5, 3.7} {
		scalar, batch := New(99), New(99)
		got := make([]float64, 10000)
		batch.FillExp(got)
		for i := range got {
			if want := scalar.Exp(lambda); got[i]/lambda != want {
				t.Fatalf("FillExp, λ=%g: [%d]/λ = %v, scalar %v", lambda, i, got[i]/lambda, want)
			}
		}
		if batch.State() != scalar.State() {
			t.Fatalf("FillExp, λ=%g: stream position diverged", lambda)
		}
	}
}

// TestFillIntnEquivalence pins the int32 form against scalar Intn on the
// bounds the topology samplers use.
func TestFillIntnEquivalence(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 5, 9, 100, 1 << 20} {
		scalar, batch32 := New(7), New(7)
		got32 := make([]int32, 500)
		batch32.FillInt32n(int32(n), got32)
		for i := range got32 {
			if want := scalar.Intn(n); int(got32[i]) != want {
				t.Fatalf("FillInt32n(%d): [%d] = %d, scalar %d", n, i, got32[i], want)
			}
		}
		if batch32.State() != scalar.State() {
			t.Fatalf("FillInt32n(%d): stream position diverged", n)
		}
	}
}

// TestFillPanics pins the degenerate-bound panics, mirroring the scalar
// methods.
func TestFillPanics(t *testing.T) {
	cases := []struct {
		name string
		call func(r *RNG)
	}{
		{"FillInt32n(0)", func(r *RNG) { r.FillInt32n(0, make([]int32, 1)) }},
		{"FillInt32n(-1)", func(r *RNG) { r.FillInt32n(-1, make([]int32, 1)) }},
	}
	for _, tc := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", tc.name)
				}
			}()
			tc.call(New(1))
		}()
	}
}

// BenchmarkFillInt32n measures the batched bounded-draw throughput against
// the scalar loop it replaces.
func BenchmarkFillInt32n(b *testing.B) {
	r := New(1)
	dst := make([]int32, 1024)
	b.Run("batch", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r.FillInt32n(999983, dst)
		}
	})
	b.Run("scalar", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for j := range dst {
				dst[j] = int32(r.Intn(999983))
			}
		}
	})
}

// BenchmarkFillExp measures the batched Exp(1) throughput against the
// scalar loop it replaces.
func BenchmarkFillExp(b *testing.B) {
	r := New(1)
	dst := make([]float64, 1024)
	b.Run("batch", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r.FillExp(dst)
		}
	})
	b.Run("scalar", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for j := range dst {
				dst[j] = r.Exp(1)
			}
		}
	})
}
