package stats

import (
	"fmt"
	"math"

	"plurality/internal/xrand"
)

// ChiSquareStatistic returns Pearson's χ² statistic for observed counts
// against expected counts. Bins with expected < 1e-12 must have zero
// observations or the statistic is +Inf by convention; callers should merge
// sparse bins first (the usual ≥ 5 expected rule).
func ChiSquareStatistic(observed []int, expected []float64) float64 {
	if len(observed) != len(expected) {
		panic(fmt.Sprintf("stats: ChiSquare with %d observed and %d expected bins",
			len(observed), len(expected)))
	}
	if len(observed) == 0 {
		panic("stats: ChiSquare with no bins")
	}
	stat := 0.0
	for i, o := range observed {
		e := expected[i]
		if e < 1e-12 {
			if o != 0 {
				return inf()
			}
			continue
		}
		d := float64(o) - e
		stat += d * d / e
	}
	return stat
}

// ChiSquarePValue returns P(X² >= stat) for df degrees of freedom, using
// the regularized upper incomplete gamma function (X² ~ Gamma(df/2, 1/2)).
func ChiSquarePValue(stat float64, df int) float64 {
	if df <= 0 {
		panic(fmt.Sprintf("stats: ChiSquarePValue with df=%d", df))
	}
	if stat <= 0 {
		return 1
	}
	return 1 - xrand.GammaCDF(float64(df)/2, 0.5, stat)
}

// ChiSquareTest reports whether observed counts are consistent with the
// expected counts at the given significance level (true = not rejected).
// Degrees of freedom are bins−1.
func ChiSquareTest(observed []int, expected []float64, significance float64) bool {
	stat := ChiSquareStatistic(observed, expected)
	df := len(observed) - 1
	if df < 1 {
		df = 1
	}
	return ChiSquarePValue(stat, df) > significance
}

func inf() float64 {
	return math.Inf(1)
}

// FisherExact returns the two-sided p-value of Fisher's exact test that k1
// successes in n1 trials and k2 in n2 share one success probability.
// Conditional on the k1+k2 successes in total, k1 is hypergeometric; the
// p-value sums the probability of every table no more likely than the
// observed one. It stays exact when a rate is 0 or 1, where χ² breaks down.
func FisherExact(k1, n1, k2, n2 int) float64 {
	if k1 < 0 || k2 < 0 || k1 > n1 || k2 > n2 {
		panic(fmt.Sprintf("stats: FisherExact with %d/%d and %d/%d", k1, n1, k2, n2))
	}
	lchoose := func(n, k int) float64 {
		a, _ := math.Lgamma(float64(n + 1))
		b, _ := math.Lgamma(float64(k + 1))
		c, _ := math.Lgamma(float64(n - k + 1))
		return a - b - c
	}
	total := k1 + k2
	logP := func(x int) float64 {
		return lchoose(n1, x) + lchoose(n2, total-x) - lchoose(n1+n2, total)
	}
	obs := logP(k1)
	p := 0.0
	for x := max(0, total-n2); x <= min(total, n1); x++ {
		if lp := logP(x); lp <= obs+1e-9 {
			p += math.Exp(lp)
		}
	}
	return min(p, 1)
}
