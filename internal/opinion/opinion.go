// Package opinion models the input of the plurality-consensus problem: an
// assignment of one of k colors (opinions) to each of n nodes, together with
// the bias statistics the paper's analysis is parametrized by — the
// multiplicative bias α between the two most-supported colors (§2.2), the
// additive gap, and the collision probability p = Σ c_j² that drives
// generation birth sizes.
package opinion

import (
	"fmt"
	"sort"
)

// Opinion identifies a color. Opinions are dense integers in [0, k).
type Opinion int32

// None marks the absence of an opinion (used by baselines with an undecided
// state; the paper's protocols never hold it).
const None Opinion = -1

// Counts holds the number of supporters of each opinion.
type Counts []int

// CountOf tallies the opinions in assignment a over support size k.
// Nodes holding None are skipped.
func CountOf(a []Opinion, k int) Counts {
	c := make(Counts, k)
	for _, o := range a {
		if o == None {
			continue
		}
		if int(o) < 0 || int(o) >= k {
			panic(fmt.Sprintf("opinion: value %d out of range k=%d", o, k))
		}
		c[o]++
	}
	return c
}

// Total returns the number of counted nodes.
func (c Counts) Total() int {
	t := 0
	for _, v := range c {
		t += v
	}
	return t
}

// TopTwo returns the indices of the most- and second-most-supported
// opinions. Ties are broken toward the smaller index, deterministically.
// With k == 1 the second return is -1.
func (c Counts) TopTwo() (first, second int) {
	if len(c) == 0 {
		panic("opinion: TopTwo on empty counts")
	}
	first, second = 0, -1
	for i := 1; i < len(c); i++ {
		switch {
		case c[i] > c[first]:
			second = first
			first = i
		case second == -1 || c[i] > c[second]:
			second = i
		}
	}
	return first, second
}

// Bias returns the multiplicative bias α = c_a / c_b between the dominant
// and second-dominant opinions. If the second-dominant opinion has no
// supporters (or k == 1) it returns +Inf represented as the count of the
// winner (callers treat bias >= n as "effectively monochromatic"); if the
// assignment is empty it returns 1.
func (c Counts) Bias() float64 {
	a, b := c.TopTwo()
	if b < 0 || c[b] == 0 {
		if c[a] == 0 {
			return 1
		}
		return float64(c[a]) // pseudo-infinite: larger than any real ratio
	}
	return float64(c[a]) / float64(c[b])
}

// AdditiveGap returns c_a - c_b for the top two opinions.
func (c Counts) AdditiveGap() int {
	a, b := c.TopTwo()
	if b < 0 {
		return c[a]
	}
	return c[a] - c[b]
}

// CollisionProb returns p = Σ_j c_j², the probability that two independently
// sampled supporters share a color (the paper's p_{i,t}). It is 0 on an
// empty assignment.
func (c Counts) CollisionProb() float64 {
	t := float64(c.Total())
	if t == 0 {
		return 0
	}
	p := 0.0
	for _, v := range c {
		f := float64(v) / t
		p += f * f
	}
	return p
}

// Monochromatic reports whether at most one opinion has supporters.
func (c Counts) Monochromatic() bool {
	seen := false
	for _, v := range c {
		if v > 0 {
			if seen {
				return false
			}
			seen = true
		}
	}
	return true
}

// SortedDescending returns opinion indices ordered by decreasing support
// (ties toward smaller index). Useful for reporting.
func (c Counts) SortedDescending() []int {
	idx := make([]int, len(c))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(i, j int) bool { return c[idx[i]] > c[idx[j]] })
	return idx
}

// RemarkLowerBound returns the paper's Remark 2 lower bound on the collision
// probability within a generation: p >= (α² + k - 1) / (α + k - 1)².
func RemarkLowerBound(alpha float64, k int) float64 {
	kk := float64(k)
	den := (alpha + kk - 1) * (alpha + kk - 1)
	return (alpha*alpha + kk - 1) / den
}

// MonochromaticDistance returns the measure md(c̄) = Σ_j (c_j/c_a)² of
// Becchetti et al. (SODA'15), cited in the paper's related work: the
// squared color fractions normalized by the dominant one. It ranges from 1
// (monochromatic) to k (uniform) and parametrizes the running time of the
// k-opinion undecided-state dynamics, so the shoot-out workloads report it
// for context. It panics on an empty support.
func (c Counts) MonochromaticDistance() float64 {
	a, _ := c.TopTwo()
	if c[a] == 0 {
		panic("opinion: MonochromaticDistance of empty counts")
	}
	ca := float64(c[a])
	md := 0.0
	for _, v := range c {
		f := float64(v) / ca
		md += f * f
	}
	return md
}
