package stats

import (
	"fmt"
	"math"
	"sort"
)

// KSStatistic returns the one-sample Kolmogorov–Smirnov statistic
// D_n = sup_x |F_n(x) − F(x)| of the sample against the reference CDF.
// It does not modify the sample.
func KSStatistic(sample []float64, cdf func(float64) float64) float64 {
	if len(sample) == 0 {
		panic("stats: KSStatistic of empty sample")
	}
	sorted := make([]float64, len(sample))
	copy(sorted, sample)
	sort.Float64s(sorted)
	n := float64(len(sorted))
	d := 0.0
	for i, x := range sorted {
		f := cdf(x)
		lo := f - float64(i)/n
		hi := float64(i+1)/n - f
		if lo > d {
			d = lo
		}
		if hi > d {
			d = hi
		}
	}
	return d
}

// KSPValue returns the asymptotic p-value for the one-sample KS statistic d
// with sample size n, using the Kolmogorov distribution series
// Q(λ) = 2 Σ (−1)^{j−1} e^{−2 j² λ²} with the Stephens small-sample
// correction. Accurate enough for hypothesis testing at conventional
// levels.
func KSPValue(d float64, n int) float64 {
	if n <= 0 {
		panic(fmt.Sprintf("stats: KSPValue with n=%d", n))
	}
	return ksProb(d, float64(n))
}

// ksProb evaluates the Kolmogorov tail for statistic d at effective sample
// size ne (ne = n for one sample, n·m/(n+m) for two).
func ksProb(d, ne float64) float64 {
	if d <= 0 {
		return 1
	}
	sqrtN := math.Sqrt(ne)
	lambda := (sqrtN + 0.12 + 0.11/sqrtN) * d
	sum := 0.0
	sign := 1.0
	for j := 1; j <= 100; j++ {
		term := sign * math.Exp(-2*float64(j*j)*lambda*lambda)
		sum += term
		sign = -sign
		if math.Abs(term) < 1e-12 {
			break
		}
	}
	p := 2 * sum
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	return p
}

// KSTest reports whether the sample is consistent with the reference CDF at
// the given significance level (true = not rejected). Used by the sampler
// test-suites as a distribution-level check beyond moments.
func KSTest(sample []float64, cdf func(float64) float64, significance float64) bool {
	d := KSStatistic(sample, cdf)
	return KSPValue(d, len(sample)) > significance
}

// KSTwoSample returns the two-sample Kolmogorov–Smirnov statistic
// D = sup_x |F_a(x) − F_b(x)| between the empirical CDFs of a and b, and
// its asymptotic p-value at the effective size n·m/(n+m) (the series and
// small-sample correction of KSPValue). Ties are stepped over together, so
// discrete data give a conservative p-value. It does not modify either
// sample.
func KSTwoSample(a, b []float64) (d, p float64) {
	if len(a) == 0 || len(b) == 0 {
		panic(fmt.Sprintf("stats: KSTwoSample with sizes %d and %d", len(a), len(b)))
	}
	x := append([]float64(nil), a...)
	y := append([]float64(nil), b...)
	sort.Float64s(x)
	sort.Float64s(y)
	n, m := float64(len(x)), float64(len(y))
	i, j := 0, 0
	for i < len(x) && j < len(y) {
		v := min(x[i], y[j])
		for i < len(x) && x[i] == v {
			i++
		}
		for j < len(y) && y[j] == v {
			j++
		}
		d = max(d, math.Abs(float64(i)/n-float64(j)/m))
	}
	return d, ksProb(d, n*m/(n+m))
}
