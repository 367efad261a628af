package stats

import (
	"math"
	"testing"

	"plurality/internal/xrand"
)

func uniformCDF(x float64) float64 {
	switch {
	case x < 0:
		return 0
	case x > 1:
		return 1
	default:
		return x
	}
}

func TestKSStatisticPerfectFit(t *testing.T) {
	// Sample at the exact quantile midpoints: D must be 1/(2n).
	n := 100
	sample := make([]float64, n)
	for i := range sample {
		sample[i] = (float64(i) + 0.5) / float64(n)
	}
	d := KSStatistic(sample, uniformCDF)
	if math.Abs(d-0.5/float64(n)) > 1e-12 {
		t.Errorf("D = %v, want %v", d, 0.5/float64(n))
	}
}

func TestKSAcceptsMatchingDistribution(t *testing.T) {
	r := xrand.New(1)
	sample := make([]float64, 5000)
	for i := range sample {
		sample[i] = r.Exp(2)
	}
	if !KSTest(sample, func(x float64) float64 { return -math.Expm1(-2 * x) }, 0.001) {
		t.Error("KS rejected exponential sample against its own CDF")
	}
}

func TestKSRejectsWrongDistribution(t *testing.T) {
	r := xrand.New(2)
	sample := make([]float64, 5000)
	for i := range sample {
		sample[i] = r.Exp(2)
	}
	// Test against Exp(1): clearly wrong.
	if KSTest(sample, func(x float64) float64 { return -math.Expm1(-x) }, 0.001) {
		t.Error("KS failed to reject Exp(2) sample against Exp(1) CDF")
	}
}

func TestKSGammaSampler(t *testing.T) {
	// Distribution-level check of the Gamma sampler used for the paper's
	// Erlang majorants (stronger than the moment tests in xrand).
	r := xrand.New(3)
	sample := make([]float64, 5000)
	for i := range sample {
		sample[i] = r.Gamma(7, 1)
	}
	if !KSTest(sample, func(x float64) float64 { return xrand.GammaCDF(7, 1, x) }, 0.001) {
		t.Error("KS rejected Gamma(7,1) sampler against the analytic CDF")
	}
}

func TestKSPValueMonotone(t *testing.T) {
	prev := 1.0
	for d := 0.0; d <= 0.2; d += 0.01 {
		p := KSPValue(d, 1000)
		if p > prev+1e-12 {
			t.Fatalf("p-value not monotone at d=%v", d)
		}
		if p < 0 || p > 1 {
			t.Fatalf("p-value out of range at d=%v: %v", d, p)
		}
		prev = p
	}
}

func TestKSPValueEdges(t *testing.T) {
	if p := KSPValue(0, 100); p != 1 {
		t.Errorf("p(0) = %v", p)
	}
	if p := KSPValue(1, 100); p > 1e-10 {
		t.Errorf("p(1) = %v, want ~0", p)
	}
}

func TestKSTwoSample(t *testing.T) {
	// Identical samples, and a disjoint pair whose D is 1.
	a := []float64{3, 1, 2, 5, 4}
	if d, p := KSTwoSample(a, a); d != 0 || p != 1 {
		t.Errorf("identical samples: D=%v p=%v, want 0 and 1", d, p)
	}
	if d, _ := KSTwoSample([]float64{1, 2}, []float64{3, 4, 5}); d != 1 {
		t.Errorf("disjoint samples: D=%v, want 1", d)
	}
	// D=0.5 by hand: after {1, 2} the first ECDF is 2/4, the second 0.
	if d, _ := KSTwoSample([]float64{1, 2, 5, 6}, []float64{3, 4, 7, 8}); d != 0.5 {
		t.Errorf("interleaved samples: D=%v, want 0.5", d)
	}
	// Ties across the samples step together.
	if d, _ := KSTwoSample([]float64{1, 1, 2}, []float64{1, 2, 2}); math.Abs(d-1.0/3) > 1e-15 {
		t.Errorf("tied samples: D=%v, want 1/3", d)
	}

	r := xrand.New(4)
	draw := func(n int, rate float64) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = r.Exp(rate)
		}
		return xs
	}
	// Under the null the p-value is uniform: about 5% fall below 0.05.
	rejected := 0
	const trials = 400
	for range trials {
		if _, p := KSTwoSample(draw(200, 1), draw(150, 1)); p < 0.05 {
			rejected++
		}
	}
	if rejected > 2*trials/20 {
		t.Errorf("rejected %d of %d same-distribution pairs at 0.05", rejected, trials)
	}
	if _, p := KSTwoSample(draw(500, 1), draw(500, 1.5)); p > 0.001 {
		t.Errorf("Exp(1) against Exp(1.5): p=%v, want a rejection", p)
	}
}
