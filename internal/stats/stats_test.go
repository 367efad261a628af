package stats

import (
	"math"
	"sort"
	"testing"

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

// addAll incorporates every value of xs into s.
func addAll(s *Summary, xs []float64) {
	for _, x := range xs {
		s.Add(x)
	}
}
