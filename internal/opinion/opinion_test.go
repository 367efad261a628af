package opinion

import (
	"math"
	"testing"
	"testing/quick"

	"plurality/internal/xrand"
)

func TestCountOf(t *testing.T) {
	a := []Opinion{0, 1, 1, 2, 2, 2, None}
	c := CountOf(a, 3)
	want := Counts{1, 2, 3}
	for i := range want {
		if c[i] != want[i] {
			t.Fatalf("counts %v, want %v", c, want)
		}
	}
}

func TestUnanimous(t *testing.T) {
	for _, tc := range []struct {
		c          Counts
		population int
		want       bool
	}{
		{Counts{0, 4, 0}, 4, true},
		{Counts{0, 3, 0}, 4, false}, // one node undecided
		{Counts{1, 3, 0}, 4, false},
		{Counts{0, 0}, 0, false}, // no survivor
	} {
		if got := tc.c.Unanimous(tc.population); got != tc.want {
			t.Errorf("%v.Unanimous(%d) = %v, want %v", tc.c, tc.population, got, tc.want)
		}
	}
}

func TestCountOfOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range opinion did not panic")
		}
	}()
	CountOf([]Opinion{5}, 3)
}

func TestTopTwo(t *testing.T) {
	cases := []struct {
		c      Counts
		first  int
		second int
	}{
		{Counts{5, 3, 1}, 0, 1},
		{Counts{1, 3, 5}, 2, 1},
		{Counts{2, 2, 1}, 0, 1}, // tie toward smaller index
		{Counts{7}, 0, -1},
		{Counts{0, 0, 4}, 2, 0},
	}
	for _, tc := range cases {
		f, s := tc.c.TopTwo()
		if f != tc.first || s != tc.second {
			t.Errorf("TopTwo(%v) = (%d,%d), want (%d,%d)", tc.c, f, s, tc.first, tc.second)
		}
	}
}

func TestBias(t *testing.T) {
	if got := (Counts{60, 30, 10}).Bias(); math.Abs(got-2) > 1e-12 {
		t.Errorf("Bias = %v, want 2", got)
	}
	if got := (Counts{10, 0, 0}).Bias(); got != 10 {
		t.Errorf("monochromatic Bias = %v, want pseudo-infinite 10", got)
	}
	if got := (Counts{0, 0}).Bias(); got != 1 {
		t.Errorf("empty Bias = %v, want 1", got)
	}
}

func TestAdditiveGap(t *testing.T) {
	if got := (Counts{60, 30, 10}).AdditiveGap(); got != 30 {
		t.Errorf("AdditiveGap = %d, want 30", got)
	}
}

func TestRemark2LowerBound(t *testing.T) {
	// Remark 2: within a generation, p >= (α²+k-1)/(α+k-1)², with equality
	// when all minority colors are equal. PlantedBias realizes exactly that
	// worst case, so measured p must match the bound closely and never fall
	// below it.
	r := xrand.New(1)
	for _, k := range []int{2, 5, 20} {
		for _, alpha := range []float64{1.1, 2, 10} {
			a := PlantedBias(100000, k, alpha, r)
			c := CountOf(a, k)
			p := 0.0 // the collision probability Σ_j (c_j/n)²
			for _, v := range c {
				f := float64(v) / float64(len(a))
				p += f * f
			}
			al, kk := c.Bias(), float64(k)
			bound := (al*al + kk - 1) / ((al + kk - 1) * (al + kk - 1))
			if p < bound-1e-9 {
				t.Errorf("k=%d alpha=%v: p=%v below Remark 2 bound %v", k, alpha, p, bound)
			}
			if p > bound*1.02 {
				t.Errorf("k=%d alpha=%v: planted worst case p=%v far above bound %v",
					k, alpha, p, bound)
			}
		}
	}
}

func TestPlantedBiasRealizesAlpha(t *testing.T) {
	r := xrand.New(2)
	for _, tc := range []struct {
		n, k  int
		alpha float64
	}{
		{10000, 2, 1.5}, {10000, 10, 2}, {100000, 50, 1.05},
	} {
		a := PlantedBias(tc.n, tc.k, tc.alpha, r)
		if len(a) != tc.n {
			t.Fatalf("len = %d, want %d", len(a), tc.n)
		}
		c := CountOf(a, tc.k)
		if got := c.Bias(); math.Abs(got-tc.alpha) > 0.05*tc.alpha {
			t.Errorf("n=%d k=%d: bias %v, want ~%v", tc.n, tc.k, got, tc.alpha)
		}
		f, _ := c.TopTwo()
		if f != 0 {
			t.Errorf("plurality opinion is %d, want 0", f)
		}
	}
}

func TestPlantedBiasShuffled(t *testing.T) {
	r := xrand.New(3)
	a := PlantedBias(1000, 2, 1.5, r)
	// The first 100 nodes should not all share the plurality opinion.
	all0 := true
	for _, o := range a[:100] {
		if o != 0 {
			all0 = false
			break
		}
	}
	if all0 {
		t.Error("assignment does not look shuffled")
	}
}

func TestPlantedGapExact(t *testing.T) {
	r := xrand.New(4)
	a := PlantedGap(1003, 3, 100, r)
	c := CountOf(a, 3)
	if total := c[0] + c[1] + c[2]; total != 1003 {
		t.Fatalf("total %d, want 1003", total)
	}
	f, s := c.TopTwo()
	if f != 0 {
		t.Fatalf("plurality is %d", f)
	}
	if gap := c[f] - c[s]; gap < 100 {
		t.Errorf("gap %d, want >= 100", gap)
	}
}

func TestUniformCoversSupport(t *testing.T) {
	r := xrand.New(5)
	a := Uniform(10000, 7, r)
	c := CountOf(a, 7)
	for i, v := range c {
		if v == 0 {
			t.Errorf("opinion %d unsupported in uniform assignment", i)
		}
	}
}

func TestZipfSkew(t *testing.T) {
	r := xrand.New(6)
	a := Zipf(50000, 10, 1.2, r)
	c := CountOf(a, 10)
	if c[0] <= c[9] {
		t.Errorf("Zipf assignment not skewed: c0=%d c9=%d", c[0], c[9])
	}
}

func TestFromCountsExact(t *testing.T) {
	r := xrand.New(7)
	a := fromCountsShuffled([]int{5, 0, 3}, r)
	c := CountOf(a, 3)
	if c[0] != 5 || c[1] != 0 || c[2] != 3 {
		t.Fatalf("fromCountsShuffled realized %v", c)
	}
}

func TestBiasPermutationInvariant(t *testing.T) {
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		a := PlantedBias(500, 4, 2, r)
		c1 := CountOf(a, 4)
		xrand.ShuffleSlice(r, a)
		c2 := CountOf(a, 4)
		return c1.Bias() == c2.Bias()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
