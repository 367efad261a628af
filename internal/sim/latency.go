package sim

import (
	"fmt"
	"slices"

	"plurality/internal/stats"
	"plurality/internal/xrand"
)

// Latency models the random time to establish one communication channel
// (the paper's T2). The arXiv version fixes T2 ~ Exp(λ); the PODC version's
// "positive aging" result holds for a wider class, so the simulator accepts
// any positive distribution and the experiments sweep over several.
type Latency interface {
	// Sample draws one channel-establishment delay using r.
	Sample(r *xrand.RNG) float64
	// Mean returns the expected delay (used to report 1/λ-style axes).
	Mean() float64
	// Name identifies the distribution in experiment output.
	Name() string
}

// ExpLatency is the paper's exponential channel latency with rate Rate
// (mean 1/Rate).
type ExpLatency struct {
	// Rate is the exponential rate λ > 0.
	Rate float64
}

var _ Latency = ExpLatency{}

// Sample draws an Exp(Rate) delay.
func (l ExpLatency) Sample(r *xrand.RNG) float64 { return r.Exp(l.Rate) }

// Mean returns 1/Rate.
func (l ExpLatency) Mean() float64 { return 1 / l.Rate }

// Name returns a human-readable identifier.
func (l ExpLatency) Name() string { return fmt.Sprintf("exp(λ=%g)", l.Rate) }

// ConstLatency is a deterministic delay, the degenerate "new-better-than-
// used" extreme of the positive-aging class.
type ConstLatency struct {
	// D is the fixed delay, D >= 0.
	D float64
}

var _ Latency = ConstLatency{}

// Sample returns the fixed delay D.
func (l ConstLatency) Sample(_ *xrand.RNG) float64 { return l.D }

// Mean returns D.
func (l ConstLatency) Mean() float64 { return l.D }

// Name returns a human-readable identifier.
func (l ConstLatency) Name() string { return fmt.Sprintf("const(%g)", l.D) }

// UniformLatency is uniform on [Lo, Hi).
type UniformLatency struct {
	// Lo and Hi bound the support, 0 <= Lo <= Hi.
	Lo, Hi float64
}

var _ Latency = UniformLatency{}

// Sample draws a uniform delay on [Lo, Hi).
func (l UniformLatency) Sample(r *xrand.RNG) float64 { return r.Uniform(l.Lo, l.Hi) }

// Mean returns (Lo+Hi)/2.
func (l UniformLatency) Mean() float64 { return (l.Lo + l.Hi) / 2 }

// Name returns a human-readable identifier.
func (l UniformLatency) Name() string { return fmt.Sprintf("uniform[%g,%g)", l.Lo, l.Hi) }

// ErlangLatency is the sum of K exponentials with rate Rate — a smooth,
// strictly positively aged distribution (increasing hazard) used in the
// aging experiments (E10).
type ErlangLatency struct {
	// K is the integral shape, K >= 1.
	K int
	// Rate is the per-stage exponential rate.
	Rate float64
}

var _ Latency = ErlangLatency{}

// Sample draws an Erlang(K, Rate) delay.
func (l ErlangLatency) Sample(r *xrand.RNG) float64 { return r.Erlang(l.K, l.Rate) }

// Mean returns K/Rate.
func (l ErlangLatency) Mean() float64 { return float64(l.K) / l.Rate }

// Name returns a human-readable identifier.
func (l ErlangLatency) Name() string { return fmt.Sprintf("erlang(k=%d,λ=%g)", l.K, l.Rate) }

// EstimateC1 returns the paper's time unit C1, the 0.9-quantile of the
// waiting time T3 = T'2 + T1 + T'2 between two completed operations
// (Remark 14, Example 15). T1 is the Exp(1) tick gap and T'2, the
// accumulated latency of one operation, is the max of a latency draws plus
// the max of b more. It is estimated by Monte-Carlo from the stream label
// of seed, so it is deterministic in (lat, seed, label, a, b). For
// exponential latencies the single-leader shape agrees with the paper's
// Γ(7, β) majorant within sampling error (experiments E1 and E11).
//
// Exp latencies take a batched path that returns the scalar loop's
// estimate bit for bit; the scalar loop is the reference for every other
// distribution.
func EstimateC1(lat Latency, seed uint64, label string, a, b int) float64 {
	r := xrand.New(seed).SplitNamed(label)
	const samples = 40000
	xs := make([]float64, samples)
	if el, ok := lat.(ExpLatency); ok {
		fillT3Exp(r, el.Rate, a, b, xs)
		return stats.Select(xs, int(0.9*float64(samples)))
	}
	maxOf := func(m int) float64 {
		x := lat.Sample(r)
		for range m - 1 {
			x = max(x, lat.Sample(r))
		}
		return x
	}
	acc := func() float64 { return maxOf(a) + maxOf(b) }
	for i := range xs {
		xs[i] = acc() + r.Exp(1) + acc()
	}
	return stats.Select(xs, int(0.9*float64(samples)))
}

// fillT3Exp fills xs with EstimateC1's T3 draws for Exp(rate) latencies. It
// draws each sample's 2(a+b)+1 variates, in the scalar loop's order, as
// Exp(1) values by xrand.FillExp; a latency is its Exp(1) value divided by
// rate, bit for bit. Rounded division by a positive rate is monotone, so the
// max of the divided values is the divided max: each max is taken over the
// Exp(1) values and divided once, and xs holds exactly the scalar loop's
// values.
func fillT3Exp(r *xrand.RNG, rate float64, a, b int, xs []float64) {
	const chunk = 256
	ab := a + b
	per := 2*ab + 1
	t2 := func(d []float64) float64 { return slices.Max(d[:a])/rate + slices.Max(d[a:ab])/rate }
	buf := make([]float64, per*chunk)
	for len(xs) > 0 {
		m := min(len(xs), chunk)
		d := buf[:per*m]
		r.FillExp(d)
		for i := range xs[:m] {
			xs[i] = t2(d) + d[ab] + t2(d[ab+1:])
			d = d[per:]
		}
		xs = xs[m:]
	}
}
