package xrand

import (
	"fmt"
	"math"
)

// This file holds the special functions the experiments need analytically:
// the regularized incomplete gamma function (CDF of the Gamma distribution),
// its quantile, and a log-sum-exp. Figure 1 of the paper plots
// F⁻¹(0.9) of the waiting time T3, whose majorant is Γ(7, β); Remark 14
// bounds that quantile by 10/(3β). These functions let the harness compute
// the paper's curve without Monte-Carlo, so simulation and closed form can
// be cross-checked against each other.

// GammaCDF returns P(X <= x) for X ~ Gamma(shape, rate), i.e. the
// regularized lower incomplete gamma function P(shape, rate*x).
func GammaCDF(shape, rate, x float64) float64 {
	if shape <= 0 || rate <= 0 {
		panic(fmt.Sprintf("xrand: GammaCDF with shape=%v rate=%v", shape, rate))
	}
	if x <= 0 {
		return 0
	}
	return regIncGammaP(shape, rate*x)
}

// GammaQuantile returns the q-quantile of Gamma(shape, rate): the smallest x
// with GammaCDF(shape, rate, x) >= q. It panics unless 0 < q < 1.
func GammaQuantile(shape, rate, q float64) float64 {
	if q <= 0 || q >= 1 {
		panic(fmt.Sprintf("xrand: GammaQuantile with q=%v", q))
	}
	if shape <= 0 || rate <= 0 {
		panic(fmt.Sprintf("xrand: GammaQuantile with shape=%v rate=%v", shape, rate))
	}
	// Bracket the root. The mean is shape/rate and the standard deviation is
	// sqrt(shape)/rate; expand the upper bound geometrically from there.
	lo := 0.0
	hi := (shape + 10*math.Sqrt(shape) + 10) / rate
	for GammaCDF(shape, rate, hi) < q {
		hi *= 2
		if math.IsInf(hi, 1) {
			panic("xrand: GammaQuantile failed to bracket")
		}
	}
	// Bisection to ~1e-12 relative width: robust and plenty fast for the
	// handful of evaluations the experiments perform.
	for i := 0; i < 200; i++ {
		mid := 0.5 * (lo + hi)
		if GammaCDF(shape, rate, mid) < q {
			lo = mid
		} else {
			hi = mid
		}
		if hi-lo <= 1e-13*hi {
			break
		}
	}
	return 0.5 * (lo + hi)
}

// regIncGammaP computes the regularized lower incomplete gamma function
// P(a, x) using the series expansion for x < a+1 and the continued fraction
// for the complement otherwise (Numerical Recipes construction).
func regIncGammaP(a, x float64) float64 {
	if x < 0 || a <= 0 {
		panic(fmt.Sprintf("xrand: regIncGammaP with a=%v x=%v", a, x))
	}
	if x == 0 {
		return 0
	}
	if x < a+1 {
		return gammaPSeries(a, x)
	}
	return 1 - gammaQContinuedFraction(a, x)
}

// gammaPSeries evaluates P(a,x) by its power series.
func gammaPSeries(a, x float64) float64 {
	lg, _ := math.Lgamma(a)
	ap := a
	sum := 1.0 / a
	del := sum
	for i := 0; i < 500; i++ {
		ap++
		del *= x / ap
		sum += del
		if math.Abs(del) < math.Abs(sum)*1e-16 {
			break
		}
	}
	return sum * math.Exp(-x+a*math.Log(x)-lg)
}

// gammaQContinuedFraction evaluates Q(a,x) = 1 - P(a,x) by Lentz's method.
func gammaQContinuedFraction(a, x float64) float64 {
	const tiny = 1e-300
	lg, _ := math.Lgamma(a)
	b := x + 1 - a
	c := 1 / tiny
	d := 1 / b
	h := d
	for i := 1; i < 500; i++ {
		an := -float64(i) * (float64(i) - a)
		b += 2
		d = an*d + b
		if math.Abs(d) < tiny {
			d = tiny
		}
		c = b + an/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < 1e-16 {
			break
		}
	}
	return math.Exp(-x+a*math.Log(x)-lg) * h
}

// LogAddExp returns log(exp(a) + exp(b)) without overflow. The synchronous
// schedule arithmetic needs ln(α^{2^i} + k - 1) for biases whose direct
// power would overflow float64; it is computed as LogAddExp(2^i·ln α,
// ln(k-1)).
func LogAddExp(a, b float64) float64 {
	if math.IsInf(a, -1) {
		return b
	}
	if math.IsInf(b, -1) {
		return a
	}
	if a < b {
		a, b = b, a
	}
	return a + math.Log1p(math.Exp(b-a))
}
