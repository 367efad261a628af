package xrand

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewDeterministic(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if av, bv := a.Uint64(), b.Uint64(); av != bv {
			t.Fatalf("streams diverged at %d: %d != %d", i, av, bv)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d identical outputs", same)
	}
}

func TestReseedRestartsStream(t *testing.T) {
	r := New(7)
	first := make([]uint64, 16)
	for i := range first {
		first[i] = r.Uint64()
	}
	r.Reseed(7)
	for i := range first {
		if v := r.Uint64(); v != first[i] {
			t.Fatalf("reseeded stream diverged at %d", i)
		}
	}
}

func TestZeroSeedNonDegenerate(t *testing.T) {
	r := New(0)
	zeros := 0
	for i := 0; i < 100; i++ {
		if r.Uint64() == 0 {
			zeros++
		}
	}
	if zeros > 2 {
		t.Fatalf("seed 0 produced %d zero outputs in 100 draws", zeros)
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(99)
	c1 := parent.Split()
	c2 := parent.Split()
	same := 0
	for i := 0; i < 256; i++ {
		if c1.Uint64() == c2.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("sibling splits produced %d identical outputs", same)
	}
}

func TestSplitNamedStable(t *testing.T) {
	a := New(5).SplitNamed("latency")
	b := New(5).SplitNamed("latency")
	for i := 0; i < 64; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("named split not reproducible at draw %d", i)
		}
	}
	c := New(5).SplitNamed("latency")
	d := New(5).SplitNamed("clock")
	diff := false
	for i := 0; i < 64; i++ {
		if c.Uint64() != d.Uint64() {
			diff = true
			break
		}
	}
	if !diff {
		t.Fatal("differently named splits produced identical streams")
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	for i := 0; i < 10000; i++ {
		u := r.Float64()
		if u < 0 || u >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", u)
		}
	}
}

func TestFloat64MeanVariance(t *testing.T) {
	r := New(11)
	const n = 200000
	sum, sumSq := 0.0, 0.0
	for i := 0; i < n; i++ {
		u := r.Float64()
		sum += u
		sumSq += u * u
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean-0.5) > 0.005 {
		t.Errorf("uniform mean %v, want ~0.5", mean)
	}
	if math.Abs(variance-1.0/12) > 0.005 {
		t.Errorf("uniform variance %v, want ~%v", variance, 1.0/12)
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(13)
	for _, n := range []int{1, 2, 3, 7, 100, 1 << 20} {
		for i := 0; i < 1000; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestUint64nUniform(t *testing.T) {
	r := New(17)
	const n, draws = 10, 100000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[r.Uint64n(n)]++
	}
	want := float64(draws) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("bucket %d: count %d deviates from %v", i, c, want)
		}
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(29)
	p := r.Perm(100)
	seen := make([]bool, 100)
	for _, v := range p {
		if v < 0 || v >= 100 || seen[v] {
			t.Fatalf("Perm produced invalid permutation at value %d", v)
		}
		seen[v] = true
	}
}

func TestBernoulliEdges(t *testing.T) {
	r := New(31)
	for i := 0; i < 100; i++ {
		if r.Bernoulli(0) {
			t.Fatal("Bernoulli(0) returned true")
		}
		if !r.Bernoulli(1) {
			t.Fatal("Bernoulli(1) returned false")
		}
	}
}

func TestBernoulliRate(t *testing.T) {
	r := New(37)
	const p, n = 0.3, 100000
	hits := 0
	for i := 0; i < n; i++ {
		if r.Bernoulli(p) {
			hits++
		}
	}
	got := float64(hits) / n
	if math.Abs(got-p) > 0.01 {
		t.Errorf("Bernoulli(%v) empirical rate %v", p, got)
	}
}

func TestQuickUint64nInRange(t *testing.T) {
	r := New(41)
	f := func(n uint64) bool {
		if n == 0 {
			n = 1
		}
		v := r.Uint64n(n)
		return v < n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickSplitNamedDeterministic(t *testing.T) {
	f := func(seed uint64, label string) bool {
		a := New(seed).SplitNamed(label).Uint64()
		b := New(seed).SplitNamed(label).Uint64()
		return a == b
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink = r.Uint64()
	}
	_ = sink
}

func BenchmarkIntn(b *testing.B) {
	r := New(1)
	var sink int
	for i := 0; i < b.N; i++ {
		sink = r.Intn(1000003)
	}
	_ = sink
}

func BenchmarkExp(b *testing.B) {
	r := New(1)
	var sink float64
	for i := 0; i < b.N; i++ {
		sink = r.Exp(1)
	}
	_ = sink
}

// TestShuffleSliceEquivalence pins ShuffleSlice to the closure-based
// Fisher-Yates it replaced: the same permutation and the same generator
// state afterwards, so every caller's stream is unchanged.
func TestShuffleSliceEquivalence(t *testing.T) {
	reference := func(r *RNG, n int, swap func(i, j int)) {
		for i := n - 1; i > 0; i-- {
			swap(i, r.Intn(i+1))
		}
	}
	for _, n := range []int{0, 1, 2, 3, 1000, 100003} {
		for _, seed := range []uint64{1, 99} {
			want := make([]int32, n)
			got := make([]int32, n)
			for i := range want {
				want[i] = int32(i)
				got[i] = int32(i)
			}
			ra, rb := New(seed), New(seed)
			reference(ra, n, func(i, j int) { want[i], want[j] = want[j], want[i] })
			ShuffleSlice(rb, got)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("n=%d seed=%d: element %d is %d, reference %d", n, seed, i, got[i], want[i])
				}
			}
			if ra.State() != rb.State() {
				t.Fatalf("n=%d seed=%d: generator state differs after the shuffle", n, seed)
			}
		}
	}
}
