package xrand

import (
	"math"
	"testing"
	"testing/quick"
)

func TestGammaCDFKnownValues(t *testing.T) {
	// Gamma(1, rate) is Exp(rate): CDF(x) = 1 - e^{-rate x}.
	for _, rate := range []float64{0.5, 1, 3} {
		for _, x := range []float64{0.1, 1, 2, 10} {
			got := GammaCDF(1, rate, x)
			want := 1 - math.Exp(-rate*x)
			if math.Abs(got-want) > 1e-12 {
				t.Errorf("GammaCDF(1,%v,%v) = %v, want %v", rate, x, got, want)
			}
		}
	}
}

func TestGammaCDFErlangAgainstSum(t *testing.T) {
	// Erlang(k, rate) CDF has closed form 1 - e^{-rate x} sum_{i<k} (rate x)^i/i!.
	closed := func(k int, rate, x float64) float64 {
		sum := 0.0
		term := 1.0
		for i := 0; i < k; i++ {
			if i > 0 {
				term *= rate * x / float64(i)
			}
			sum += term
		}
		return 1 - math.Exp(-rate*x)*sum
	}
	for _, k := range []int{2, 5, 7} {
		for _, x := range []float64{0.5, 2, 7, 20} {
			got := GammaCDF(float64(k), 1, x)
			want := closed(k, 1, x)
			if math.Abs(got-want) > 1e-10 {
				t.Errorf("GammaCDF(%d,1,%v) = %v, want %v", k, x, got, want)
			}
		}
	}
}

func TestGammaCDFMonotone(t *testing.T) {
	prev := -1.0
	for x := 0.0; x < 30; x += 0.25 {
		v := GammaCDF(7, 1, x)
		if v < prev-1e-15 {
			t.Fatalf("GammaCDF not monotone at x=%v", x)
		}
		if v < 0 || v > 1 {
			t.Fatalf("GammaCDF out of [0,1] at x=%v: %v", x, v)
		}
		prev = v
	}
}

func TestGammaQuantileRoundTrip(t *testing.T) {
	for _, shape := range []float64{0.5, 1, 2, 7, 25} {
		for _, rate := range []float64{0.2, 1, 4} {
			for _, q := range []float64{0.01, 0.25, 0.5, 0.9, 0.99} {
				x := GammaQuantile(shape, rate, q)
				back := GammaCDF(shape, rate, x)
				if math.Abs(back-q) > 1e-9 {
					t.Errorf("roundtrip Gamma(%v,%v) q=%v: CDF(Q(q))=%v",
						shape, rate, q, back)
				}
			}
		}
	}
}

func TestRemark14Scaling(t *testing.T) {
	// Remark 14 claims C1 = F^{-1}(0.9) of the Γ(7, β) majorant is below
	// 10/(3β). The remark's proof drops the e^{-βx} factor of the Erlang
	// CDF, and the claimed constant is in fact too small: the true quantile
	// is ≈ 10.53/β (which is also what the paper's own Figure 1 plots at
	// λ = 1). What survives — and what we verify — is the remark's substance:
	// C1 scales exactly as c/β with a λ-independent constant c, so a time
	// unit is Θ(1/β) steps.
	base := GammaQuantile(7, 1, 0.9)
	if math.Abs(base-10.532072106498482) > 1e-9 {
		t.Errorf("0.9-quantile of Γ(7,1) = %v, want ~10.5321", base)
	}
	for _, beta := range []float64{0.05, 0.1, 0.5, 1, 4} {
		c1 := GammaQuantile(7, beta, 0.9)
		if math.Abs(c1-base/beta) > 1e-8*base/beta {
			t.Errorf("C1(beta=%v) = %v, want %v/beta = %v", beta, c1, base, base/beta)
		}
		// The paper's claimed numeric bound does NOT hold; document that it
		// fails by the expected factor ≈ 3.16 so a future tightening of the
		// sampler cannot silently flip this finding.
		if c1 < 10/(3*beta) {
			t.Errorf("Remark 14 bound unexpectedly holds at beta=%v; "+
				"the C1Constants finding that the bound fails needs revisiting", beta)
		}
	}
}

func TestGammaQuantileMonteCarloAgreement(t *testing.T) {
	// The analytic 0.9-quantile of Γ(7,1) should match the empirical
	// quantile of Erlang samples.
	r := New(200)
	const n = 200000
	samples := make([]float64, n)
	for i := range samples {
		samples[i] = r.Erlang(7, 1)
	}
	// Count below analytic quantile.
	q := GammaQuantile(7, 1, 0.9)
	count := 0
	for _, s := range samples {
		if s <= q {
			count++
		}
	}
	got := float64(count) / n
	if math.Abs(got-0.9) > 0.005 {
		t.Errorf("empirical mass below analytic 0.9-quantile: %v", got)
	}
}

func TestLogAddExp(t *testing.T) {
	cases := []struct{ a, b float64 }{
		{0, 0}, {1, 2}, {-3, 5}, {700, 710}, {1000, 1000}, {math.Inf(-1), 3},
	}
	for _, c := range cases {
		got := LogAddExp(c.a, c.b)
		var want float64
		if math.IsInf(c.a, -1) {
			want = c.b
		} else if c.a < 600 && c.b < 600 {
			want = math.Log(math.Exp(c.a) + math.Exp(c.b))
		} else {
			m := math.Max(c.a, c.b)
			want = m + math.Log(math.Exp(c.a-m)+math.Exp(c.b-m))
		}
		if math.Abs(got-want) > 1e-12*math.Max(1, math.Abs(want)) {
			t.Errorf("LogAddExp(%v,%v) = %v, want %v", c.a, c.b, got, want)
		}
	}
}

func TestLogAddExpCommutative(t *testing.T) {
	f := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) || math.IsInf(a, 1) || math.IsInf(b, 1) {
			return true
		}
		// Clamp to avoid overflow-irrelevant regions.
		a = math.Mod(a, 1e6)
		b = math.Mod(b, 1e6)
		x := LogAddExp(a, b)
		y := LogAddExp(b, a)
		return x == y && x >= math.Max(a, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkGammaQuantile(b *testing.B) {
	var sink float64
	for i := 0; i < b.N; i++ {
		sink = GammaQuantile(7, 1, 0.9)
	}
	_ = sink
}
