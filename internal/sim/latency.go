package sim

import (
	"fmt"
	"slices"
	"sync"

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

// c1Samples is the number of Monte-Carlo draws behind each C1: the
// smallest of 50,000, 100,000 and 200,000 with which TestDistributionGolden
// passes against the per-run estimates (40,000 draws each) it was recorded
// with. Its relative standard deviation across streams is about 0.2%.
const c1Samples = 50_000

// c1MemoCap bounds the memo. A served spec's latency reaches it from
// outside the program, so past the cap an unseen law is estimated on every
// call instead of stored: the value is the same, only its cost repeats.
const c1MemoCap = 256

// c1Key identifies one C1: a latency law (a comparable Latency value, as
// every Latency of this package is) and the fan-ins of T'2.
type c1Key struct {
	lat  Latency
	a, b int
}

// c1Entry is one memoized C1, computed by the first caller of its key.
type c1Entry struct {
	once sync.Once
	c1   float64
}

// c1Memo maps a c1Key to its entry, for the life of the process; c1Mu
// guards the map, not the estimates.
var (
	c1Mu   sync.Mutex
	c1Memo = map[c1Key]*c1Entry{}
)

// EstimateC1 returns the paper's time unit C1, the 0.9-quantile of the
// waiting time T3 = T'2 + T1 + T'2 between two completed operations
// (Remark 14, Example 15). T1 is the Exp(1) tick gap and T'2, the
// accumulated latency of one operation, is the max of a latency draws plus
// the max of b more. C1 is a property of the latency law, so it is
// estimated by c1Samples Monte-Carlo draws from one fixed stream, once per
// process for each (lat, a, b) while the memo holds fewer than c1MemoCap
// laws; every call returns the same value, and concurrent callers wait for
// the one estimate. Only runs that repeat a law in one process gain: the
// first run of a law pays the estimate, a little more than the 40,000
// per-run draws it replaces. For exponential latencies the single-leader
// shape agrees with the paper's Γ(7, β) majorant (experiments E1 and E11).
func EstimateC1(lat Latency, a, b int) float64 {
	k := c1Key{lat, a, b}
	c1Mu.Lock()
	ent, ok := c1Memo[k]
	if !ok && len(c1Memo) < c1MemoCap {
		ent = new(c1Entry)
		c1Memo[k] = ent
	}
	c1Mu.Unlock()
	if ent == nil {
		return estimateC1(lat, c1Stream(), c1Samples, a, b)
	}
	ent.once.Do(func() { ent.c1 = estimateC1(lat, c1Stream(), c1Samples, a, b) })
	return ent.c1
}

// c1Stream returns the fixed stream every C1 estimate draws from.
func c1Stream() *xrand.RNG { return xrand.New(0) }

// estimateC1 is EstimateC1's Monte-Carlo estimate from samples draws of r.
// Exp latencies take a batched path that returns the scalar loop's
// estimate bit for bit; the scalar loop is the reference for every other
// distribution.
func estimateC1(lat Latency, r *xrand.RNG, samples, a, b int) float64 {
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

// fillT3Exp fills xs with estimateC1's T3 draws for Exp(rate) latencies. It
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
