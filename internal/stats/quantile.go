package stats

import (
	"fmt"
	"math"
	"sort"
)

// Quantile returns the q-quantile of xs using linear interpolation between
// order statistics (type-7, the R default). It does not modify xs. It panics
// on an empty sample or q outside [0, 1].
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		panic("stats: Quantile of empty sample")
	}
	if q < 0 || q > 1 || math.IsNaN(q) {
		panic(fmt.Sprintf("stats: Quantile with q=%v", q))
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	return quantileSorted(sorted, q)
}

// Quantiles returns the quantiles at each q in qs, sorting the sample once.
func Quantiles(xs []float64, qs ...float64) []float64 {
	if len(xs) == 0 {
		panic("stats: Quantiles of empty sample")
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	out := make([]float64, len(qs))
	for i, q := range qs {
		if q < 0 || q > 1 || math.IsNaN(q) {
			panic(fmt.Sprintf("stats: Quantiles with q=%v", q))
		}
		out[i] = quantileSorted(sorted, q)
	}
	return out
}

func quantileSorted(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 1 {
		return sorted[0]
	}
	h := q * float64(n-1)
	lo := int(math.Floor(h))
	hi := lo + 1
	if hi >= n {
		return sorted[n-1]
	}
	frac := h - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// EmpiricalCDF returns the fraction of xs at or below x.
func EmpiricalCDF(xs []float64, x float64) float64 {
	if len(xs) == 0 {
		panic("stats: EmpiricalCDF of empty sample")
	}
	count := 0
	for _, v := range xs {
		if v <= x {
			count++
		}
	}
	return float64(count) / float64(len(xs))
}

// Select returns the k-th smallest element (0-based) of xs by quickselect
// with a median-of-three pivot, reordering xs in place: expected linear
// time, where Quantile sorts a copy.
func Select(xs []float64, k int) float64 {
	lo, hi := 0, len(xs)-1
	for {
		if lo == hi {
			return xs[lo]
		}
		mid := (lo + hi) / 2
		if xs[mid] < xs[lo] {
			xs[mid], xs[lo] = xs[lo], xs[mid]
		}
		if xs[hi] < xs[lo] {
			xs[hi], xs[lo] = xs[lo], xs[hi]
		}
		if xs[hi] < xs[mid] {
			xs[hi], xs[mid] = xs[mid], xs[hi]
		}
		pivot := xs[mid]
		i, j := lo, hi
		for i <= j {
			for xs[i] < pivot {
				i++
			}
			for xs[j] > pivot {
				j--
			}
			if i <= j {
				xs[i], xs[j] = xs[j], xs[i]
				i++
				j--
			}
		}
		switch {
		case k <= j:
			hi = j
		case k >= i:
			lo = i
		default:
			return xs[k]
		}
	}
}
