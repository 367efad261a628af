package sim

import (
	"sync"
	"testing"

	"plurality/internal/xrand"
)

// c1Shapes are the engines' T'2 fan-ins.
var c1Shapes = []struct {
	name string
	a, b int
}{
	{"leader", 2, 1},
	{"decentralized", 3, 2},
}

// scalarExp is an exponential latency that estimateC1 does not recognise
// as ExpLatency, so it takes the scalar loop.
type scalarExp struct{ ExpLatency }

// TestEstimateC1BatchedMatchesScalar pins that the batched draw path for
// exponential latencies returns the scalar loop's estimate bit for bit, for
// both engines' shapes, over 200 streams of 40,000 draws per rate (20
// under -short).
func TestEstimateC1BatchedMatchesScalar(t *testing.T) {
	seeds := uint64(200)
	if testing.Short() {
		seeds = 20
	}
	for _, sh := range c1Shapes {
		t.Run(sh.name, func(t *testing.T) {
			for _, rate := range []float64{0.5, 1, 3.7} {
				for seed := uint64(0); seed < seeds; seed++ {
					lat := ExpLatency{Rate: rate}
					got := estimateC1(lat, xrand.New(seed), 40000, sh.a, sh.b)
					want := estimateC1(scalarExp{lat}, xrand.New(seed), 40000, sh.a, sh.b)
					if got != want {
						t.Fatalf("λ=%v seed %d: batched C1 %v, scalar %v", rate, seed, got, want)
					}
				}
			}
		})
	}
}

// TestEstimateC1Memo pins the memo: concurrent first calls for one law
// all get the one estimate from the fixed stream, distinct laws and
// shapes get their own, and a later call returns the same value.
func TestEstimateC1Memo(t *testing.T) {
	lat := ExpLatency{Rate: 0.8}
	want := estimateC1(lat, c1Stream(), c1Samples, 2, 1)
	got := make([]float64, 8)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = EstimateC1(lat, 2, 1)
		}()
	}
	wg.Wait()
	for i, c1 := range got {
		if c1 != want {
			t.Fatalf("caller %d: C1 %v, want the fixed-stream estimate %v", i, c1, want)
		}
	}
	if c1 := EstimateC1(ExpLatency{Rate: 0.8}, 2, 1); c1 != want {
		t.Errorf("later call: C1 %v, want %v", c1, want)
	}
	if multi := EstimateC1(lat, 3, 2); multi <= want {
		t.Errorf("decentralized shape C1 %v not above the leader's %v", multi, want)
	}
	if slow := EstimateC1(ExpLatency{Rate: 0.4}, 2, 1); slow <= want {
		t.Errorf("C1 %v at λ=0.4 not above %v at λ=0.8", slow, want)
	}
}

// TestEstimateC1MemoBounded pins the memo's bound: past c1MemoCap laws
// the memo stops growing, and a law it does not hold still gets the
// fixed-stream estimate.
func TestEstimateC1MemoBounded(t *testing.T) {
	c1Mu.Lock()
	saved := c1Memo
	c1Memo = map[c1Key]*c1Entry{}
	c1Mu.Unlock()
	defer func() {
		c1Mu.Lock()
		c1Memo = saved
		c1Mu.Unlock()
	}()
	const laws = c1MemoCap + 8
	for i := range laws {
		EstimateC1(ExpLatency{Rate: 1 + float64(i)/laws}, 2, 1)
	}
	c1Mu.Lock()
	held := len(c1Memo)
	c1Mu.Unlock()
	if held != c1MemoCap {
		t.Fatalf("memo holds %d laws after %d distinct ones, want the cap %d", held, laws, c1MemoCap)
	}
	lat := ExpLatency{Rate: 0.3}
	want := estimateC1(lat, c1Stream(), c1Samples, 2, 1)
	if c1 := EstimateC1(lat, 2, 1); c1 != want {
		t.Errorf("law past the cap: C1 %v, want the fixed-stream estimate %v", c1, want)
	}
}

// BenchmarkEstimateC1 times one C1 estimate per engine shape with Exp(1)
// latencies, the one-off cost of a latency law's first run in a process.
func BenchmarkEstimateC1(b *testing.B) {
	for _, sh := range c1Shapes {
		b.Run(sh.name, func(b *testing.B) {
			for b.Loop() {
				estimateC1(ExpLatency{Rate: 1}, c1Stream(), c1Samples, sh.a, sh.b)
			}
		})
	}
}
