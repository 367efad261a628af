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
// of the EngineEpoch pin.
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
			"639a6f61318c3d6d1c8cbc6627fcad87afc6da8ae91d2a625d7b4bdbd9713ee3", "25f1a6e1afa8b7ea4ed6cf0fbb071a8f8c4246afd187efe89ef4675f2cfb7c2f"},
		{"churn/rr8", "rr8", 5005, churn,
			"c0d8736e501ce82b7fcd6bd205dd329b58cd733a3cd35d38cedb011eed2c0bdd", "0860eb43c0790bc97bd959e32e4ec4ea02a981c4a1a6f063d1cc5d51d453ea1e"},
		{"crash/complete", "complete", 5005, oneShot,
			"c4598bd22d64da1eb750e66dc42aff6412e1db43324ac2e90f0a50eb0170bca1", "9835bc44d3730af7cc7e94b5453f43ca144c033b94cd6de4042c18552674fc12"},
		{"crash/rr8", "rr8", 5005, oneShot,
			"379b25a56607f58fc5d8b9bee919a3dc13df5270c1658e35deb2f3050db4ca19", "497064c1e8c4108128f3c9ba3cc4296009cc060abdc8a941ee5a9021578593be"},
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
