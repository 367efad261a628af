package xrand

import (
	"math"
	"testing"
)

// zipfLaw returns the Zipf(s) law over k outcomes: p_i ∝ (i+1)^{-s}.
func zipfLaw(k int, s float64) []float64 {
	p := make([]float64, k)
	norm := 0.0
	for i := range p {
		p[i] = math.Pow(float64(i+1), -s)
		norm += p[i]
	}
	for i := range p {
		p[i] /= norm
	}
	return p
}

// tableProb returns the probability z's cumulative table gives outcome i.
func tableProb(z *Zipf, i int) float64 {
	if i == 0 {
		return z.cdf[0]
	}
	return z.cdf[i] - z.cdf[i-1]
}

func TestZipfProbabilities(t *testing.T) {
	for _, c := range []struct {
		k int
		s float64
	}{
		{1, 0}, {1, 2}, {4, 0}, {4, 1}, {8, 1.5}, {32, 0.8}, {100, 2},
	} {
		z := NewZipf(c.k, c.s)
		if len(z.cdf) != c.k {
			t.Fatalf("NewZipf(%d, %v) has %d outcomes", c.k, c.s, len(z.cdf))
		}
		// The table's steps normalize and follow (i+1)^{-s} ratios.
		total := 0.0
		for i, want := range zipfLaw(c.k, c.s) {
			p := tableProb(z, i)
			if p <= 0 || p > 1 {
				t.Fatalf("Zipf(%d, %v) outcome %d has probability %v", c.k, c.s, i, p)
			}
			if math.Abs(p-want) > 1e-12 {
				t.Errorf("Zipf(%d, %v) outcome %d has probability %v, want %v", c.k, c.s, i, p, want)
			}
			total += p
		}
		if math.Abs(total-1) > 1e-9 {
			t.Errorf("Zipf(%d, %v) probabilities sum to %v", c.k, c.s, total)
		}
	}
}

func TestZipfUniformWhenSZero(t *testing.T) {
	z := NewZipf(10, 0)
	for i := 0; i < 10; i++ {
		if p := tableProb(z, i); math.Abs(p-0.1) > 1e-12 {
			t.Fatalf("Zipf(10, 0) outcome %d has probability %v, want 0.1", i, p)
		}
	}
}

func TestZipfSampleDistribution(t *testing.T) {
	const k, s, n = 6, 1.2, 200_000
	z := NewZipf(k, s)
	r := New(42)
	counts := make([]int, k)
	for i := 0; i < n; i++ {
		v := z.Sample(r)
		if v < 0 || v >= k {
			t.Fatalf("sample %d outside [0, %d)", v, k)
		}
		counts[v]++
	}
	// Each empirical frequency within 5 sd of its binomial expectation.
	for i, p := range zipfLaw(k, s) {
		sd := math.Sqrt(n * p * (1 - p))
		if d := math.Abs(float64(counts[i]) - n*p); d > 5*sd {
			t.Errorf("outcome %d: count %d deviates %.1f sd from expectation %.0f",
				i, counts[i], d/sd, n*p)
		}
	}
	// Monotone decreasing head: outcome 0 strictly dominates outcome k-1.
	if counts[0] <= counts[k-1] {
		t.Errorf("Zipf head %d not heavier than tail %d", counts[0], counts[k-1])
	}
}

func TestZipfOrdering(t *testing.T) {
	z := NewZipf(10, 1.5)
	for i := 1; i < 10; i++ {
		if tableProb(z, i) > tableProb(z, i-1)+1e-15 {
			t.Errorf("Zipf probs not non-increasing at %d", i)
		}
	}
}

func TestZipfDeterministic(t *testing.T) {
	z := NewZipf(16, 1.1)
	a, b := New(7), New(7)
	for i := 0; i < 10_000; i++ {
		if x, y := z.Sample(a), z.Sample(b); x != y {
			t.Fatalf("draw %d: same seed diverged (%d vs %d)", i, x, y)
		}
	}
}

func TestZipfPanics(t *testing.T) {
	expectPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	expectPanic("k=0", func() { NewZipf(0, 1) })
	expectPanic("negative s", func() { NewZipf(4, -1) })
	expectPanic("NaN s", func() { NewZipf(4, math.NaN()) })
}
