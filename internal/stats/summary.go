// Package stats provides the measurement substrate for the experiment
// harness: streaming summaries (Welford), order-statistic selection,
// least-squares fits, and the χ², Fisher and Kolmogorov–Smirnov tests. The
// experiments report every running-time claim of the paper as a scaling
// fit, and the conformance tests check the engines' outcome distributions
// with the hypothesis tests.
package stats

import (
	"fmt"
	"math"
)

// Summary accumulates a stream of observations with Welford's numerically
// stable one-pass algorithm. The zero value is an empty, usable summary.
type Summary struct {
	n    int
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add incorporates one observation.
func (s *Summary) Add(x float64) {
	if s.n == 0 {
		s.min, s.max = x, x
	} else {
		if x < s.min {
			s.min = x
		}
		if x > s.max {
			s.max = x
		}
	}
	s.n++
	delta := x - s.mean
	s.mean += delta / float64(s.n)
	s.m2 += delta * (x - s.mean)
}

// N returns the number of observations.
func (s *Summary) N() int { return s.n }

// Mean returns the sample mean (0 when empty).
func (s *Summary) Mean() float64 { return s.mean }

// Var returns the unbiased sample variance (0 for fewer than 2 points).
func (s *Summary) Var() float64 {
	if s.n < 2 {
		return 0
	}
	return s.m2 / float64(s.n-1)
}

// Std returns the sample standard deviation.
func (s *Summary) Std() float64 { return math.Sqrt(s.Var()) }

// Min returns the smallest observation (0 when empty).
func (s *Summary) Min() float64 { return s.min }

// Max returns the largest observation (0 when empty).
func (s *Summary) Max() float64 { return s.max }

// SE returns the standard error of the mean.
func (s *Summary) SE() float64 {
	if s.n == 0 {
		return 0
	}
	return s.Std() / math.Sqrt(float64(s.n))
}

// String renders "mean ± se [min, max] (n=…)" for experiment tables.
func (s *Summary) String() string {
	return fmt.Sprintf("%.4g ± %.2g [%.4g, %.4g] (n=%d)",
		s.Mean(), s.SE(), s.Min(), s.Max(), s.n)
}
