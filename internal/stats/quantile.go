package stats

// Select returns the k-th smallest element (0-based) of xs by quickselect
// with a median-of-three pivot, reordering xs in place, in expected linear
// time.
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
