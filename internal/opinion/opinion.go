// Package opinion models the input of the plurality-consensus problem: an
// assignment of one of k colors (opinions) to each of n nodes, together with
// the bias statistics the paper's analysis is parametrized by — the
// multiplicative bias α between the two most-supported colors (§2.2) and
// the additive gap.
package opinion

import "fmt"

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
