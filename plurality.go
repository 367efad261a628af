package plurality

import (
	"math"

	"plurality/internal/baseline"
	"plurality/internal/core/leader"
)

// EngineEpoch versions the engines' behaviour. Two builds with the same
// epoch return bit-identical Results for every protocol and Spec. It is
// bumped in any change that moves an RNG stream, the event order or what a
// Result reports on purpose, and it is part of every cache key pluralityd
// computes, so a stored result never outlives the engines that produced
// it. Epoch 2 replaced the per-node Poisson clocks by one superposed clock
// and drew exponentials with a ziggurat. Epoch 3 records, stops and
// reports every run on its survivors' counts, with undecided nodes in the
// population. Epoch 4 notes an asynchronous run's ε-hit at the count
// change that makes it, measures MaxGenFrac against the survivors, and
// takes C1 from one estimate per latency law instead of one per run.
const EngineEpoch = 4

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
// time unit, F⁻¹(0.9) of the waiting time T3 — for the given latency spec:
// exactly the C1 every "leader" run with that latency uses, whatever its
// seed (Result.Stats["c1"]). It is a property of the latency law,
// estimated once per process. Useful for interpreting the asynchronous
// Result times in time units.
func EstimateTimeUnit(spec LatencySpec) (float64, error) {
	lat, err := spec.build()
	if err != nil {
		return 0, err
	}
	return leader.TimeUnit(lat), nil
}
