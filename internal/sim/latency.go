package sim

import (
	"fmt"

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
