package xrand

import (
	"fmt"
	"math"
)

// Gamma returns a Gamma(shape, rate)-distributed sample (mean shape/rate).
//
// The paper's waiting-time bounds majorize the latency sums by Gamma
// distributions with integral shape (Erlang), e.g. T3 ≼ Γ(7, β) in §3.1, so
// the sampler must be exact for small integral shapes; the Marsaglia–Tsang
// method used here is exact for all shape >= 1 and is extended below 1 by
// the standard boosting identity.
func (r *RNG) Gamma(shape, rate float64) float64 {
	if shape <= 0 || rate <= 0 {
		panic(fmt.Sprintf("xrand: Gamma with shape=%v rate=%v", shape, rate))
	}
	if shape < 1 {
		// Boost: Γ(a) = Γ(a+1) · U^{1/a}.
		u := r.Float64Open()
		return r.Gamma(shape+1, rate) * math.Pow(u, 1/shape)
	}
	d := shape - 1.0/3.0
	c := 1 / math.Sqrt(9*d)
	for {
		x := r.Norm()
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := r.Float64Open()
		if u < 1-0.0331*x*x*x*x {
			return d * v / rate
		}
		if math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return d * v / rate
		}
	}
}

// Erlang returns the sum of k independent Exp(rate) variables. For small k it
// sums exponentials directly (exact and branch-free); larger shapes defer to
// Gamma.
func (r *RNG) Erlang(k int, rate float64) float64 {
	if k <= 0 || rate <= 0 {
		panic(fmt.Sprintf("xrand: Erlang with k=%d rate=%v", k, rate))
	}
	if k <= 16 {
		// Product of uniforms avoids k logs.
		prod := 1.0
		for i := 0; i < k; i++ {
			prod *= r.Float64Open()
		}
		return -math.Log(prod) / rate
	}
	return r.Gamma(float64(k), rate)
}

// Uniform returns a uniform sample in [lo, hi). It panics if hi < lo.
func (r *RNG) Uniform(lo, hi float64) float64 {
	if hi < lo {
		panic(fmt.Sprintf("xrand: Uniform with lo=%v > hi=%v", lo, hi))
	}
	return lo + (hi-lo)*r.Float64()
}
