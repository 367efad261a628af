package xrand_test

import (
	"math"
	"testing"

	"plurality/internal/stats"
	"plurality/internal/xrand"
)

// TestExpKS checks the ziggurat's whole distribution, not just its
// moments: 10⁶ draws each of Exp(1) and Exp(2.5) against their CDFs, enough
// to see the ~1% of draws that take the wedge test.
func TestExpKS(t *testing.T) {
	r := xrand.New(101)
	for _, rate := range []float64{1, 2.5} {
		xs := make([]float64, 1_000_000)
		for i := range xs {
			xs[i] = r.Exp(rate)
		}
		d := stats.KSStatistic(xs, func(x float64) float64 { return -math.Expm1(-rate * x) })
		if p := stats.KSPValue(d, len(xs)); p < 0.001 {
			t.Errorf("Exp(%v): KS D=%.5f p=%.3g", rate, d, p)
		}
	}
}

// TestExpTail covers the ziggurat's base-layer tail branch, which draws
// every sample beyond 7.697: their share must be e^{-7.697} within
// binomial tolerance, and their excess over 7.697 must again be Exp(1).
func TestExpTail(t *testing.T) {
	const n, edge = 20_000_000, 7.697117470131487
	r := xrand.New(102)
	var excess []float64
	for range n {
		if x := r.Exp(1); x > edge {
			excess = append(excess, x-edge)
		}
	}
	p := math.Exp(-edge)
	mean, sd := n*p, math.Sqrt(n*p*(1-p))
	if got := float64(len(excess)); math.Abs(got-mean) > 5*sd {
		t.Fatalf("%v of %d draws beyond %v, want %.1f ± %.1f", got, n, edge, mean, 5*sd)
	}
	if !stats.KSTest(excess, func(x float64) float64 { return -math.Expm1(-x) }, 0.001) {
		t.Errorf("tail excess over %v is not Exp(1)", edge)
	}
}

// TestExpPanicsOnBadRate keeps Exp's guard: a rate that is not positive is
// a programming error.
func TestExpPanicsOnBadRate(t *testing.T) {
	for _, rate := range []float64{0, -1, math.NaN()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Exp(%v) did not panic", rate)
				}
			}()
			xrand.New(1).Exp(rate)
		}()
	}
}
