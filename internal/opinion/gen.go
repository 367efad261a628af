package opinion

import (
	"fmt"

	"plurality/internal/xrand"
)

// PlantedBias builds an n-node assignment over k opinions in which opinion 0
// has multiplicative bias approximately alpha over each other opinion: the
// non-plurality opinions share the remainder as evenly as possible. This is
// the worst-case profile from Remark 2 (all minority colors equal) and the
// canonical input of the paper's theorems. The assignment is returned in a
// deterministically shuffled order driven by r, so node index carries no
// information. It panics on k <= 0, n < 0, or alpha < 1.
func PlantedBias(n, k int, alpha float64, r *xrand.RNG) []Opinion {
	if k <= 0 || n < 0 {
		panic(fmt.Sprintf("opinion: PlantedBias with n=%d k=%d", n, k))
	}
	if alpha < 1 {
		panic(fmt.Sprintf("opinion: PlantedBias with alpha=%v < 1", alpha))
	}
	// c_a = alpha / (alpha + k - 1) fraction; the rest split evenly.
	counts := make([]int, k)
	ca := int(float64(n) * alpha / (alpha + float64(k) - 1))
	if ca > n {
		ca = n
	}
	counts[0] = ca
	rem := n - ca
	for i := 1; i < k; i++ {
		share := rem / (k - i)
		counts[i] = share
		rem -= share
	}
	counts[0] += rem // leftover from integer division stays with plurality
	return fromCountsShuffled(counts, r)
}

// PlantedGap builds an assignment in which opinion 0 has exactly gap more
// supporters than each other opinion (as close as integer arithmetic
// allows); related work often states bias additively, and E12 uses this to
// align workloads across protocols.
func PlantedGap(n, k, gap int, r *xrand.RNG) []Opinion {
	if k <= 0 || n < 0 || gap < 0 {
		panic(fmt.Sprintf("opinion: PlantedGap with n=%d k=%d gap=%d", n, k, gap))
	}
	base := (n - gap) / k
	if base < 0 {
		base = 0
	}
	counts := make([]int, k)
	for i := range counts {
		counts[i] = base
	}
	counts[0] += n - base*k // plurality absorbs gap and rounding
	return fromCountsShuffled(counts, r)
}

// Uniform assigns each node an independent uniform opinion; the α ≈ 1
// regime used for failure-injection tests.
func Uniform(n, k int, r *xrand.RNG) []Opinion {
	if k <= 0 || n < 0 {
		panic(fmt.Sprintf("opinion: Uniform with n=%d k=%d", n, k))
	}
	a := make([]Opinion, n)
	for i := range a {
		a[i] = Opinion(r.Intn(k))
	}
	return a
}

// Zipf assigns opinions i.i.d. from a Zipf(s) law over k colors — the
// skewed "plurality with a long tail" workload motivating the paper's
// community-detection and polling applications.
func Zipf(n, k int, s float64, r *xrand.RNG) []Opinion {
	z := xrand.NewZipf(k, s)
	a := make([]Opinion, n)
	for i := range a {
		a[i] = Opinion(z.Sample(r))
	}
	return a
}

// fromCountsShuffled builds an assignment realizing counts exactly, in
// shuffled node order.
func fromCountsShuffled(counts []int, r *xrand.RNG) []Opinion {
	n := 0
	for _, c := range counts {
		n += c
	}
	a := make([]Opinion, 0, n)
	for op, c := range counts {
		for j := 0; j < c; j++ {
			a = append(a, Opinion(op))
		}
	}
	r.Shuffle(len(a), func(i, j int) { a[i], a[j] = a[j], a[i] })
	return a
}
