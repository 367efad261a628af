package cluster

import (
	"crypto/sha256"
	"fmt"
	"os"
	"strconv"
	"testing"

	"plurality/internal/sim"
	"plurality/internal/topo"
)

// digestClustering folds every field of a Clustering except Topo into a
// SHA-256 digest. Maps are walked in Leaders order and floats are rendered
// in hex ('x') form, so two Clusterings digest equal iff they are
// bit-identical.
func digestClustering(cl *Clustering) string {
	h := sha256.New()
	hx := func(v float64) string { return strconv.FormatFloat(v, 'x', -1, 64) }
	fmt.Fprintf(h, "n=%d target=%d first=%s last=%s end=%s to=%t\n",
		cl.N, cl.TargetSize, hx(cl.FirstSwitch), hx(cl.LastSwitch), hx(cl.EndTime), cl.TimedOut)
	fmt.Fprintf(h, "leaderOf=%v\nleaders=%v\n", cl.LeaderOf, cl.Leaders)
	for _, l := range cl.Leaders {
		st, switched := cl.SwitchTime[l]
		fmt.Fprintf(h, "l %d size=%d cons=%t switched=%t at=%s\n",
			l, cl.Size[l], cl.InConsensusMode[l], switched, hx(st))
	}
	for _, p := range cl.Coverage {
		fmt.Fprintf(h, "c %s %s %s\n", hx(p.Time), hx(p.ClusteredFrac), hx(p.BigClusterFrac))
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestFormGolden pins cluster formation, which the root package's goldens
// reach only through decentralized runs with Exp(1) latency, across four
// latency laws and three graphs at n=3000. The constant-latency rows are
// the sharpest: every join and signal delay is the same float, so they are
// where a change to the order of equal-time events would show.
//
// To re-record after an intentional, reviewed behaviour change:
//
//	PLURALITY_GOLDEN_RECORD=1 go test -run TestFormGolden -v ./internal/cluster
func TestFormGolden(t *testing.T) {
	const n = 3000
	torus, err := topo.NewTorus(50, 60)
	if err != nil {
		t.Fatal(err)
	}
	rr, err := topo.NewRandomRegular(n, 6, 5)
	if err != nil {
		t.Fatal(err)
	}
	graphs := []struct {
		name string
		tp   topo.Sampler
	}{{"complete", nil}, {"torus", torus}, {"rr6", rr}}
	lats := []struct {
		name string
		lat  sim.Latency
	}{
		{"exp1", sim.ExpLatency{Rate: 1}},
		{"const1", sim.ConstLatency{D: 1}},
		{"uniform", sim.UniformLatency{Lo: 0.5, Hi: 1.5}},
		{"erlang3", sim.ErlangLatency{K: 3, Rate: 3}},
	}
	golden := map[string]string{
		"exp1/complete/seed1":    "8a3a41f8e3b799f07ed446b6ce85a95050e3940d15e1619aca16cc8cf7d4e2f2",
		"exp1/complete/seed2":    "707d697f65277bb91c468e7d4c01cb4104bc282a1b5f7448dae85cf871cbe70f",
		"exp1/torus/seed1":       "caf1329ff7915c41621bab91c034149a633e40fc738a67e7ffee3b111de47b76",
		"exp1/torus/seed2":       "830f90ce1a19c93dd3e84cf43757aef75abdfca0b8873b7b046e2703a72f83b0",
		"exp1/rr6/seed1":         "588044749dcf3363f0728914c0095e9aa5c18087c91c43e5cff0b8f55a9c683c",
		"exp1/rr6/seed2":         "0a9bbcc9e4d9a9f703346e75b06445f2fc53ebe347f9ab86cde5e3229b3a763c",
		"const1/complete/seed1":  "fadbbecd36b61ea068eda66f4462b69812c5c0db8bb0c17a5d88eb2d6ed7e2c0",
		"const1/complete/seed2":  "f9961193c3b3a22fe514cd6774110c9b2cf690aaced80b08be39fb2bf4856b20",
		"const1/torus/seed1":     "255a7b8cc438e3f03eace012df09ae8481fccaa1d4e832ef2b686e4883662790",
		"const1/torus/seed2":     "48c2581084d3498fb867ce1a3c6efb211434a0d9ee04c50b644c0318bd744fa4",
		"const1/rr6/seed1":       "43fcd7081f1455ebd3b9b3132c0dbd75e028dfcd7bbf6f08c90d74c6c15aa65d",
		"const1/rr6/seed2":       "44e8fa2a726139c6d7a885c69ed8fccd52d0f8fe8fbc6bf90187a17019073c40",
		"uniform/complete/seed1": "ca1ba4fa87e483fbed4d52ab65683f4eb9c9b6389b331d8bd8e032c59dd38caf",
		"uniform/complete/seed2": "b15e79eacc44442c114dcb7687c4b4f809391326f2629a7afc808ff97b7a6740",
		"uniform/torus/seed1":    "8dea9941518c0c9f1b0b01d29fc4efa1228d78fc46312e0316a804dbefe9eea5",
		"uniform/torus/seed2":    "2ad3bb82497e040fa1ba9574ba3c5b495ca9198a1ba85f5b6375dbac04bf9fa4",
		"uniform/rr6/seed1":      "67198bc77dd14f3836c9ca859c1e7d1553bd84c71ace45562f894e4a2e7b6bfa",
		"uniform/rr6/seed2":      "33ec114ceafecc937b8f034cb8c0630dbda9f04f3a7ce23ebe62a316524ac889",
		"erlang3/complete/seed1": "9de692ae589144db89b501a13b777224b479b7f6980165a061594179e94092c5",
		"erlang3/complete/seed2": "2243d1155091f860d179bab7e0fd31d766ef09817b3eb175d6bdf4ccf0b0c543",
		"erlang3/torus/seed1":    "b3cb11f9b29d645e2bbfc74c651d4b86aa1fb25f099b979a6fe0442543beb0a4",
		"erlang3/torus/seed2":    "42b9a6e40e81da5ba9093655a6af87db407b700f405251932ed24f7c8eafcbe8",
		"erlang3/rr6/seed1":      "351d9d9392dc971dd30c3d617dc464033baa392106cc5dae9a646a3e57cd64e1",
		"erlang3/rr6/seed2":      "f7032411f0fe87ee5d751bc82803f5f73f99ea6d230dd9b67defde495cfe565d",
	}
	record := os.Getenv("PLURALITY_GOLDEN_RECORD") != ""
	for _, l := range lats {
		for _, g := range graphs {
			for seed := uint64(1); seed <= 2; seed++ {
				key := fmt.Sprintf("%s/%s/seed%d", l.name, g.name, seed)
				t.Run(key, func(t *testing.T) {
					cl, err := Form(Params{N: n, Latency: l.lat, Topo: g.tp, Seed: seed})
					if err != nil {
						t.Fatal(err)
					}
					got := digestClustering(cl)
					if record {
						fmt.Printf("\t%q: %q,\n", key, got)
						return
					}
					if want := golden[key]; got != want {
						t.Errorf("formation digest changed:\n  got  %s\n  want %s", got, want)
					}
				})
			}
		}
	}
}
