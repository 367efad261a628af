package sim

import "testing"

// c1Shapes are the engines' T'2 fan-ins and stream labels.
var c1Shapes = []struct {
	name  string
	label string
	a, b  int
}{
	{"leader", "c1-estimate", 2, 1},
	{"decentralized", "c1-estimate-multi", 3, 2},
}

// scalarExp is an exponential latency that EstimateC1 does not recognise
// as ExpLatency, so it takes the scalar loop.
type scalarExp struct{ ExpLatency }

// TestEstimateC1BatchedMatchesScalar pins that the batched draw path for
// exponential latencies returns the scalar loop's estimate bit for bit, for
// both engines' shapes, over 200 seeds per rate (20 under -short).
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
					got := EstimateC1(lat, seed, sh.label, sh.a, sh.b)
					want := EstimateC1(scalarExp{lat}, seed, sh.label, sh.a, sh.b)
					if got != want {
						t.Fatalf("λ=%v seed %d: batched C1 %v, scalar %v", rate, seed, got, want)
					}
				}
			}
		})
	}
}

// BenchmarkEstimateC1 times one C1 estimate per engine shape with Exp(1)
// latencies, the cost every asynchronous run pays in its setup.
func BenchmarkEstimateC1(b *testing.B) {
	for _, sh := range c1Shapes {
		b.Run(sh.name, func(b *testing.B) {
			seed := uint64(0)
			for b.Loop() {
				EstimateC1(ExpLatency{Rate: 1}, seed, sh.label, sh.a, sh.b)
				seed++
			}
		})
	}
}
