package plurality

import (
	"math"

	"plurality/internal/baseline"
	"plurality/internal/core/leader"
)

// EngineEpoch versions the engines' behaviour. Two builds with the same
// epoch return bit-identical Results for every protocol and Spec. It is
// bumped in any change that moves an RNG stream or the event order on
// purpose, and it is part of every cache key pluralityd computes, so a
// stored result never outlives the engines that produced it. Epoch 2
// replaced the per-node Poisson clocks by one superposed clock and drew
// exponentials with a ziggurat.
const EngineEpoch = 2

// Baselines lists the available baseline rules: "pull-voting",
// "two-choices", "3-majority", "undecided-state". Each is also a registered
// protocol name accepted by Run.
func Baselines() []string { return baseline.RuleNames() }

// MinTheoremBias returns the smallest initial bias Theorem 1 admits for n
// nodes and k opinions: 1 + (k·log₂ n/√n)·log₂ k.
func MinTheoremBias(n, k int) float64 {
	if n < 2 || k < 2 {
		return 1
	}
	return minBias(n, k)
}

func minBias(n, k int) float64 {
	return 1 + float64(k)*math.Log2(float64(n))/math.Sqrt(float64(n))*math.Log2(float64(k))
}

// EstimateTimeUnit returns the paper's C1 — the number of time steps per
// time unit, F⁻¹(0.9) of the waiting time T3 — for the given latency spec,
// estimated deterministically from seed. Useful for interpreting the
// asynchronous Result times in time units.
func EstimateTimeUnit(spec LatencySpec, seed uint64) (float64, error) {
	lat, err := spec.build()
	if err != nil {
		return 0, err
	}
	return leader.EstimateC1(lat, seed), nil
}
