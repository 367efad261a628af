package xrand

import (
	"fmt"
	"math"
)

// Zipf samples from a Zipf(s) distribution over {0, 1, ..., k-1}: outcome i
// has probability proportional to (i+1)^{-s}. The experiments use it to
// generate skewed initial opinion assignments, a natural "plurality with
// long tail" workload that the paper's intro motivates (community detection,
// polling).
//
// The support of the consensus problem is small (k ≤ √n), so a precomputed
// cumulative table with binary-search inversion is both exact and fast.
type Zipf struct {
	cdf []float64
}

// NewZipf builds a Zipf distribution over k outcomes with exponent s >= 0.
// s = 0 degenerates to the uniform distribution. It panics if k <= 0 or s is
// negative or NaN.
func NewZipf(k int, s float64) *Zipf {
	if k <= 0 {
		panic(fmt.Sprintf("xrand: NewZipf with k=%d", k))
	}
	if s < 0 || math.IsNaN(s) {
		panic(fmt.Sprintf("xrand: NewZipf with s=%v", s))
	}
	cdf := make([]float64, k)
	total := 0.0
	for i := 0; i < k; i++ {
		total += math.Pow(float64(i+1), -s)
		cdf[i] = total
	}
	for i := range cdf {
		cdf[i] /= total
	}
	cdf[k-1] = 1 // guard against rounding
	return &Zipf{cdf: cdf}
}

// Sample draws one outcome using the generator r.
func (z *Zipf) Sample(r *RNG) int {
	u := r.Float64()
	// Binary search for the first index with cdf >= u.
	lo, hi := 0, len(z.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
