package syncgen

import (
	"crypto/sha256"
	"fmt"
	"os"
	"testing"

	"plurality/internal/adversary"
	"plurality/internal/snap"
	"plurality/internal/topo"
)

// syncStepCapture is the step whose state each TestSyncStepGolden cell
// captures: early enough that every run, however fast it settles, is still
// going.
const syncStepCapture = 4

// syncStepGraph builds the named graph on n nodes.
func syncStepGraph(name string, n int) (topo.Sampler, error) {
	switch name {
	case "complete":
		return topo.NewComplete(n), nil
	case "torus":
		rows, cols, ok := topo.NearSquareDims(n)
		if !ok {
			return nil, fmt.Errorf("no torus dimensions for n=%d", n)
		}
		return topo.NewTorus(rows, cols)
	case "rr8":
		return topo.NewRandomRegular(n, 8, 5)
	case "er":
		return topo.NewErdosRenyi(n, 12/float64(n), 5)
	}
	return nil, fmt.Errorf("unknown graph %q", name)
}

// digestSyncResult folds every field of a Result into a SHA-256 digest. %v
// renders floats in their shortest round-tripping form, so two Results
// digest equal iff they are bit-identical.
func digestSyncResult(res *Result) string {
	return fmt.Sprintf("%x", sha256.Sum256([]byte(fmt.Sprintf("%+v", *res))))
}

// TestSyncStepGolden pins the synchronous round loop on the runs no other
// golden reaches: honest runs on a torus and on CSR graphs at about 2·10⁴
// nodes, and every sync adversary on the complete graph and on a
// random-regular graph at n=5005, where one adversarial step spans three
// partner-draw chunks. Each cell pins its Result and the state captured
// after step syncStepCapture. The table is local to this test and not part
// of the EngineEpoch pin. The four crash cells were re-recorded at
// EngineEpoch 4, when MaxGenFrac began to count survivors only.
//
// To re-record after an intentional, reviewed behaviour change:
//
//	PLURALITY_GOLDEN_RECORD=1 go test -run TestSyncStepGolden -v ./internal/core/syncgen
func TestSyncStepGolden(t *testing.T) {
	var (
		churn   = adversary.Config{Kind: adversary.Crash, Fraction: 0.2, Rate: 1, Seed: 41}
		oneShot = adversary.Config{Kind: adversary.Crash, Fraction: 0.2, At: 2, Seed: 41}
		drop    = adversary.Config{Kind: adversary.Drop, Fraction: 0.3, Seed: 41}
		byz     = adversary.Config{Kind: adversary.Byzantine, Fraction: 0.1, Seed: 41}
	)
	cells := []struct {
		name, graph  string
		n            int
		adv          adversary.Config
		result, blob string // SHA-256 of the Result and of the capture
	}{
		{"honest/torus(150x150)", "torus", 22500, adversary.Config{},
			"5d17b039728140ecceccc0b63183f54956b2b10a2f44e0d023a83387be356b96", "32453e3c35f35f184f3556dba0fbaf02e5fe6cb566ae2f160298ee86294e6010"},
		{"honest/rr8", "rr8", 20000, adversary.Config{},
			"232e3dc443ee2efc057a9d5a4687fe843b5436f6913870e4cc621a09d0bda02a", "9b126094e4117e587195ba3ad9d502ff81cb7dee7f0a8161857c291cadd57b55"},
		{"honest/er", "er", 20000, adversary.Config{},
			"bf6695305a8fb18e2f63bc694bc8ef728471f2d0bb6ce952717f2a37ad6313cf", "f282efbc2236d9a40606d836914749a6f67c3648e2347cd9b6f7f54ac200dee9"},
		{"churn/complete", "complete", 5005, churn,
			"5f7fdf1f3401cd6743aadf2007e0d9c30a699225058c6bbcc5efeb21079a6407", "b12e369f33a7e2c2c3eae52bced9ad91c91db453ee29c341cc9f94b51fbf81c9"},
		{"churn/rr8", "rr8", 5005, churn,
			"1e0fe93fd85a26666f8e4762e3fd081b4ceff9ba71b97bd4286937e239efdc02", "5472b9cbce505fde8712fa077bcb1193427d357ecf3b17515bc6baf9c4a8c621"},
		{"crash/complete", "complete", 5005, oneShot,
			"09e3fa4280c308506fc22f5132a3f48e44ce7b918e93eecd3c3a72f51ceb0271", "076e08fccbe169290540767e8eebc1b10caab8f3bf5fe2b605a8c9751da6a3e9"},
		{"crash/rr8", "rr8", 5005, oneShot,
			"a15c9f9e61e8969233fb96ef2851b958ac5858ed3dfae6d5d8c05b9fd2cf5783", "9fd73e39d1e2d50be77873cf3b21841136884ad76d02d19978db7c6ce5e25e37"},
		{"drop/complete", "complete", 5005, drop,
			"c60cf0c6caa37b9feb1d6ddbf5cebeb990da32262549de37b1567d1b71d552c2", "97c5174d2630d63c22b5bf1e4838e5c955757e7b7da5bd818b9311c7836d81c6"},
		{"drop/rr8", "rr8", 5005, drop,
			"9c299b297ed3d94a30843b2b5a6ea15ebe32d1ea9f47093742a8cd0ca40fb4ad", "35d1b47dbf26379173dd48a14d98f299fbc305c253d91027529934fc3ff3b196"},
		{"byzantine/complete", "complete", 5005, byz,
			"8b1197c29a1947bfc5af2cdfe4c07b415c14360c732ae066a8853de05d425221", "cdb1c1b87412c3de5172e7dacb08e31f11f12f084c346970e29fe4a7670e7b06"},
		{"byzantine/rr8", "rr8", 5005, byz,
			"ee4b8fcf72fa3bdc65acdbbec48f61bfc307550a6f38d3d3a4d1f0bfa4ff0876", "03edcf8f51f56765ddc8f5c2014b25ed78c8bdeb04f985b945f5281fffc437c0"},
	}
	record := os.Getenv("PLURALITY_GOLDEN_RECORD") != ""
	for _, c := range cells {
		t.Run(c.name, func(t *testing.T) {
			tp, err := syncStepGraph(c.graph, c.n)
			if err != nil {
				t.Fatal(err)
			}
			var blob []byte
			res, err := Run(Config{
				N: c.n, K: 4, Alpha: 1.5, Seed: 31, Topo: tp, Adv: c.adv, MaxSteps: 150,
				Ckpt: &snap.Checkpoint{
					At:   syncStepCapture,
					Sink: func(state []byte, _ float64, _ uint64) { blob = append([]byte(nil), state...) },
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			if blob == nil {
				t.Fatalf("no state captured at step %d (run ended after %d steps)", syncStepCapture, res.Steps)
			}
			gotRes := digestSyncResult(res)
			gotBlob := fmt.Sprintf("%x", sha256.Sum256(blob))
			if record {
				fmt.Printf("GOLDEN\t%s\tsteps=%d full=%t\t%q, %q\n", c.name, res.Steps, res.Outcome.FullConsensus, gotRes, gotBlob)
				return
			}
			if gotRes != c.result {
				t.Errorf("result digest changed:\n  got  %s\n  want %s", gotRes, c.result)
			}
			if gotBlob != c.blob {
				t.Errorf("step-%d capture digest changed:\n  got  %s\n  want %s", syncStepCapture, gotBlob, c.blob)
			}
		})
	}
}
