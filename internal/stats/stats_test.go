package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"plurality/internal/xrand"
)

func TestSummaryBasics(t *testing.T) {
	var s Summary
	addAll(&s, []float64{2, 4, 4, 4, 5, 5, 7, 9})
	if s.N() != 8 {
		t.Fatalf("N = %d", s.N())
	}
	if math.Abs(s.Mean()-5) > 1e-12 {
		t.Errorf("Mean = %v, want 5", s.Mean())
	}
	// Population variance is 4; sample variance is 4*8/7.
	if math.Abs(s.Var()-32.0/7) > 1e-12 {
		t.Errorf("Var = %v, want %v", s.Var(), 32.0/7)
	}
	if s.Min() != 2 || s.Max() != 9 {
		t.Errorf("Min/Max = %v/%v", s.Min(), s.Max())
	}
}

func TestSummaryEmpty(t *testing.T) {
	var s Summary
	if s.Mean() != 0 || s.Var() != 0 || s.SE() != 0 {
		t.Error("empty summary should be all zeros")
	}
}

func TestSummarySingle(t *testing.T) {
	var s Summary
	s.Add(42)
	if s.Mean() != 42 || s.Var() != 0 || s.Min() != 42 || s.Max() != 42 {
		t.Error("single-value summary wrong")
	}
}

func TestSummaryMergeEquivalence(t *testing.T) {
	f := func(a, b []float64) bool {
		clean := func(xs []float64) []float64 {
			out := xs[:0]
			for _, x := range xs {
				if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e9 {
					out = append(out, x)
				}
			}
			return out
		}
		a, b = clean(a), clean(b)
		var s1, s2, merged Summary
		addAll(&s1, a)
		addAll(&s2, b)
		addAll(&merged, a)
		addAll(&merged, b)
		s1.Merge(&s2)
		if s1.N() != merged.N() {
			return false
		}
		if s1.N() == 0 {
			return true
		}
		tol := 1e-7 * (1 + math.Abs(merged.Mean()))
		if math.Abs(s1.Mean()-merged.Mean()) > tol {
			return false
		}
		return math.Abs(s1.Var()-merged.Var()) <= 1e-6*(1+merged.Var())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestQuantileKnown(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	if got := Quantile(xs, 0.5); got != 3 {
		t.Errorf("median = %v", got)
	}
	if got := Quantile(xs, 0); got != 1 {
		t.Errorf("q0 = %v", got)
	}
	if got := Quantile(xs, 1); got != 5 {
		t.Errorf("q1 = %v", got)
	}
	if got := Quantile(xs, 0.25); got != 2 {
		t.Errorf("q.25 = %v", got)
	}
}

func TestQuantileInterpolates(t *testing.T) {
	xs := []float64{0, 10}
	if got := Quantile(xs, 0.5); got != 5 {
		t.Errorf("interpolated median = %v, want 5", got)
	}
}

func TestQuantileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Quantile(xs, 0.5)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Error("Quantile mutated input")
	}
}

// TestSelect checks quickselect against a full sort on random samples,
// uniform and normal, including ties from rounding.
func TestSelect(t *testing.T) {
	r := xrand.New(17)
	for trial := 0; trial < 80; trial++ {
		n := 1 + r.Intn(200)
		xs := make([]float64, n)
		for i := range xs {
			switch trial % 3 {
			case 0:
				xs[i] = r.Float64()
			case 1:
				xs[i] = r.Norm()
			default:
				xs[i] = math.Round(4 * r.Float64())
			}
		}
		k := r.Intn(n)
		want := append([]float64(nil), xs...)
		sort.Float64s(want)
		if got := Select(xs, k); got != want[k] {
			t.Fatalf("Select(k=%d of %d) = %v, want %v", k, n, got, want[k])
		}
	}
}

func TestQuantilesConsistent(t *testing.T) {
	r := xrand.New(1)
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = r.Float64()
	}
	qs := Quantiles(xs, 0.1, 0.5, 0.9)
	for i, q := range []float64{0.1, 0.5, 0.9} {
		if got := Quantile(xs, q); got != qs[i] {
			t.Errorf("Quantiles[%d] = %v, Quantile = %v", i, qs[i], got)
		}
	}
	if !(qs[0] < qs[1] && qs[1] < qs[2]) {
		t.Error("quantiles not monotone")
	}
}

func TestEmpiricalCDF(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	if got := EmpiricalCDF(xs, 2.5); got != 0.5 {
		t.Errorf("CDF(2.5) = %v", got)
	}
	if got := EmpiricalCDF(xs, 0); got != 0 {
		t.Errorf("CDF(0) = %v", got)
	}
	if got := EmpiricalCDF(xs, 4); got != 1 {
		t.Errorf("CDF(4) = %v", got)
	}
}

func TestMeanCICoverage(t *testing.T) {
	// Check that ~95% of 95% CIs over normal samples cover the true mean.
	r := xrand.New(2)
	covered := 0
	const trials = 400
	for i := 0; i < trials; i++ {
		var s Summary
		for j := 0; j < 50; j++ {
			s.Add(10 + 2*r.Norm())
		}
		if MeanCI(&s, 0.95).Contains(10) {
			covered++
		}
	}
	rate := float64(covered) / trials
	if rate < 0.90 || rate > 0.99 {
		t.Errorf("95%% CI coverage %v, want ~0.95", rate)
	}
}

func TestMeanCISmallSampleWider(t *testing.T) {
	var small, large Summary
	for i := 0; i < 5; i++ {
		small.Add(float64(i))
	}
	for i := 0; i < 500; i++ {
		large.Add(float64(i % 5))
	}
	smallCI := MeanCI(&small, 0.95)
	largeCI := MeanCI(&large, 0.95)
	if (smallCI.Hi - smallCI.Lo) <= (largeCI.Hi - largeCI.Lo) {
		t.Error("small-sample CI not wider than large-sample CI")
	}
}

func TestProportionCI(t *testing.T) {
	iv := ProportionCI(95, 100, 0.95)
	if !iv.Contains(0.95) {
		t.Errorf("Wilson interval %v does not contain the MLE", iv)
	}
	if iv.Lo < 0.88 || iv.Hi > 0.99 {
		t.Errorf("Wilson interval %v unexpectedly wide", iv)
	}
	// Degenerate all-success case must stay within [0,1] and not collapse.
	iv = ProportionCI(100, 100, 0.95)
	if iv.Hi != 1 || iv.Lo > 1 || iv.Lo < 0.9 {
		t.Errorf("all-success Wilson interval %v", iv)
	}
	iv = ProportionCI(0, 100, 0.95)
	if iv.Lo != 0 || iv.Hi < 0.005 || iv.Hi > 0.1 {
		t.Errorf("no-success Wilson interval %v", iv)
	}
}

func TestLinearFitExact(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	ys := []float64{5, 7, 9, 11} // y = 2x + 3
	f := LinearFit(xs, ys)
	if math.Abs(f.Slope-2) > 1e-12 || math.Abs(f.Intercept-3) > 1e-12 {
		t.Errorf("fit %v, want slope 2 intercept 3", f)
	}
	if math.Abs(f.R2-1) > 1e-12 {
		t.Errorf("R² = %v, want 1", f.R2)
	}
}

func TestLinearFitNoisy(t *testing.T) {
	r := xrand.New(3)
	xs := make([]float64, 500)
	ys := make([]float64, 500)
	for i := range xs {
		xs[i] = float64(i)
		ys[i] = 0.5*xs[i] + 1 + 0.1*r.Norm()
	}
	f := LinearFit(xs, ys)
	if math.Abs(f.Slope-0.5) > 0.01 {
		t.Errorf("noisy slope %v", f.Slope)
	}
	if f.R2 < 0.99 {
		t.Errorf("noisy R² %v", f.R2)
	}
}

func TestLogLogFitRecoversExponent(t *testing.T) {
	xs := []float64{10, 100, 1000, 10000}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 3 * math.Pow(x, 1.5)
	}
	f := LogLogFit(xs, ys)
	if math.Abs(f.Slope-1.5) > 1e-9 {
		t.Errorf("log-log slope %v, want 1.5", f.Slope)
	}
}

func TestSemiLogFitRecoversLogLaw(t *testing.T) {
	xs := []float64{10, 100, 1000, 10000}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 2*math.Log(x) + 5
	}
	f := SemiLogFit(xs, ys)
	if math.Abs(f.Slope-2) > 1e-9 || math.Abs(f.Intercept-5) > 1e-9 {
		t.Errorf("semi-log fit %v", f)
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram(0, 10, 10)
	for i := 0; i < 10; i++ {
		h.Add(float64(i) + 0.5)
	}
	h.Add(-1)
	h.Add(11)
	if h.Count() != 12 {
		t.Fatalf("Count = %d", h.Count())
	}
	for i := 0; i < 10; i++ {
		if h.Bin(i) != 1 {
			t.Errorf("bin %d = %d, want 1", i, h.Bin(i))
		}
	}
	u, o := h.OutOfRange()
	if u != 1 || o != 1 {
		t.Errorf("out of range %d/%d", u, o)
	}
	if h.BinCenter(0) != 0.5 {
		t.Errorf("BinCenter(0) = %v", h.BinCenter(0))
	}
	if h.Render(20) == "" {
		t.Error("Render produced empty output")
	}
}

func TestHistogramBoundary(t *testing.T) {
	h := NewHistogram(0, 1, 4)
	h.Add(0)    // first bin
	h.Add(0.25) // second bin boundary
	h.Add(1)    // overflow (hi-exclusive)
	if h.Bin(0) != 1 || h.Bin(1) != 1 {
		t.Errorf("boundary binning: %v %v", h.Bin(0), h.Bin(1))
	}
	_, over := h.OutOfRange()
	if over != 1 {
		t.Errorf("hi boundary not overflow: %d", over)
	}
}

// addAll incorporates every value of xs into s.
func addAll(s *Summary, xs []float64) {
	for _, x := range xs {
		s.Add(x)
	}
}
