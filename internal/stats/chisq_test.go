package stats

import (
	"math"
	"testing"

	"plurality/internal/xrand"
)

func TestChiSquareStatisticExactFit(t *testing.T) {
	obs := []int{10, 20, 30}
	exp := []float64{10, 20, 30}
	if got := ChiSquareStatistic(obs, exp); got != 0 {
		t.Errorf("χ² = %v for exact fit", got)
	}
}

func TestChiSquareStatisticKnown(t *testing.T) {
	// Single bin off by d: χ² = d²/e.
	obs := []int{15, 20}
	exp := []float64{10, 20}
	if got := ChiSquareStatistic(obs, exp); math.Abs(got-2.5) > 1e-12 {
		t.Errorf("χ² = %v, want 2.5", got)
	}
}

func TestChiSquareEmptyExpectedBin(t *testing.T) {
	if got := ChiSquareStatistic([]int{0, 5}, []float64{0, 5}); got != 0 {
		t.Errorf("zero-expected zero-observed bin contributed: %v", got)
	}
	if got := ChiSquareStatistic([]int{1, 5}, []float64{0, 5}); !math.IsInf(got, 1) && got < 1e300 {
		t.Errorf("impossible observation not flagged: %v", got)
	}
}

func TestChiSquarePValueKnownValues(t *testing.T) {
	// χ² = 3.841 with df=1 is the 95th percentile.
	if p := ChiSquarePValue(3.841458820694124, 1); math.Abs(p-0.05) > 1e-6 {
		t.Errorf("p(3.8415, df=1) = %v, want 0.05", p)
	}
	// χ² = 18.307 with df=10 is the 95th percentile.
	if p := ChiSquarePValue(18.307038053275146, 10); math.Abs(p-0.05) > 1e-6 {
		t.Errorf("p(18.307, df=10) = %v, want 0.05", p)
	}
}

func TestChiSquareAcceptsPoissonSampler(t *testing.T) {
	// An exact sampler passes at small and large means.
	for _, mu := range []float64{4, 60} {
		r := xrand.New(5)
		const n = 50000
		maxBin := int(mu + 8*math.Sqrt(mu))
		observed := make([]int, maxBin+1)
		for i := 0; i < n; i++ {
			v := poisson(r, mu)
			if v > maxBin {
				v = maxBin
			}
			observed[v]++
		}
		expected := make([]float64, maxBin+1)
		p := math.Exp(-mu)
		cum := 0.0
		for k := 0; k <= maxBin; k++ {
			if k > 0 {
				p *= mu / float64(k)
			}
			expected[k] = p * n
			cum += p
		}
		expected[maxBin] += (1 - cum) * n // fold the tail into the last bin
		// Merge sparse bins (< 5 expected) into neighbours.
		obsM, expM := mergeSparse(observed, expected, 5)
		if !ChiSquareTest(obsM, expM, 0.001) {
			t.Errorf("χ² rejected Poisson(%v) sampler", mu)
		}
	}
}

func TestChiSquareRejectsWrongMean(t *testing.T) {
	r := xrand.New(6)
	const n = 50000
	observed := make([]int, 30)
	for i := 0; i < n; i++ {
		v := poisson(r, 8)
		if v > 29 {
			v = 29
		}
		observed[v]++
	}
	// Expected under Poisson(10): must be rejected.
	expected := make([]float64, 30)
	p := math.Exp(-10.0)
	cum := 0.0
	for k := 0; k < 30; k++ {
		if k > 0 {
			p *= 10.0 / float64(k)
		}
		expected[k] = p * n
		cum += p
	}
	expected[29] += (1 - cum) * n
	obsM, expM := mergeSparse(observed, expected, 5)
	if ChiSquareTest(obsM, expM, 0.001) {
		t.Error("χ² failed to reject Poisson(8) sample against Poisson(10)")
	}
}

// poisson draws a Poisson(mean) variate by Knuth's product of uniforms,
// which is exact while exp(-mean) stays a normal float64.
func poisson(r *xrand.RNG, mean float64) int {
	l := math.Exp(-mean)
	k, p := 0, r.Float64Open()
	for p > l {
		k++
		p *= r.Float64Open()
	}
	return k
}

// mergeSparse folds bins with expected counts below minExpected into their
// left neighbour (the first bin folds right).
func mergeSparse(observed []int, expected []float64, minExpected float64) ([]int, []float64) {
	var obs []int
	var exp []float64
	for i := range observed {
		if len(exp) > 0 && (expected[i] < minExpected || exp[len(exp)-1] < minExpected) {
			obs[len(obs)-1] += observed[i]
			exp[len(exp)-1] += expected[i]
		} else {
			obs = append(obs, observed[i])
			exp = append(exp, expected[i])
		}
	}
	return obs, exp
}

func TestFisherExact(t *testing.T) {
	// Tea-tasting table [[3,1],[1,3]]: two-sided p = 34/70.
	if p := FisherExact(3, 4, 1, 4); math.Abs(p-34.0/70) > 1e-12 {
		t.Errorf("tea tasting: p=%v, want %v", p, 34.0/70)
	}
	if p := FisherExact(40, 40, 40, 40); p != 1 {
		t.Errorf("40/40 against 40/40: p=%v, want 1", p)
	}
	if p := FisherExact(40, 40, 30, 40); p > 0.002 {
		t.Errorf("40/40 against 30/40: p=%v, want < 0.002", p)
	}
	if p := FisherExact(40, 40, 38, 40); p < 0.4 {
		t.Errorf("40/40 against 38/40: p=%v, want about 0.49", p)
	}
}
