package plurality

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"plurality/internal/baseline"
	"plurality/internal/core/syncgen"
	"plurality/internal/snap"
	"plurality/internal/topo"
	"plurality/internal/xrand"
)

// samplerOnly exposes nothing of a graph but topo.Sampler, so an engine
// handed one can neither see its concrete type nor its bulk path and takes
// its generic, scalar-sampling route.
type samplerOnly struct{ topo.Sampler }

// TestRoundKernelFastPathEquivalence pins the synchronous round kernels'
// raw-draw fast paths (complete and regular graphs) against the generic
// path: each run on a real graph must produce the same result JSON and the
// same mid-run snapshot bytes as the run on the same graph behind
// samplerOnly. The sizes cover n below one draw chunk, n not a multiple of
// any chunk, and n spanning five chunks. Ring and torus runs check that
// their SampleNeighbors draws agree with the scalar fallback.
func TestRoundKernelFastPathEquivalence(t *testing.T) {
	const k, rounds, captureAt = 3, 24, 9
	for _, n := range []int{1000, 5005, 10005} {
		graphs := fastPathGraphs(t, n)
		for _, g := range graphs {
			for _, proto := range []string{"sync", "pull-voting", "two-choices", "3-majority", "undecided-state"} {
				t.Run(fmt.Sprintf("%s/%s/n=%d", proto, g.name, n), func(t *testing.T) {
					res, blob := runRoundKernel(t, proto, n, k, rounds, captureAt, g.tp)
					wantRes, wantBlob := runRoundKernel(t, proto, n, k, rounds, captureAt, samplerOnly{g.tp})
					if !bytes.Equal(res, wantRes) {
						t.Errorf("result differs from the generic path:\n got %s\nwant %s", res, wantRes)
					}
					if blob == nil || !bytes.Equal(blob, wantBlob) {
						t.Errorf("snapshot at round %d differs from the generic path (%d vs %d bytes)",
							captureAt, len(blob), len(wantBlob))
					}
				})
			}
		}
	}
}

type fastPathGraph struct {
	name string
	tp   topo.Sampler
}

func fastPathGraphs(t *testing.T, n int) []fastPathGraph {
	t.Helper()
	ring, err := topo.NewRing(n, 2)
	if err != nil {
		t.Fatal(err)
	}
	rows, cols, ok := topo.NearSquareDims(n)
	if !ok {
		t.Fatalf("no torus dimensions for n=%d", n)
	}
	torus, err := topo.NewTorus(rows, cols)
	if err != nil {
		t.Fatal(err)
	}
	gs := []fastPathGraph{{"complete", topo.NewComplete(n)}, {"ring", ring}, {"torus", torus}}
	for _, d := range []int{4, 8} {
		rr, err := topo.NewRandomRegular(n, d, uint64(n+d))
		if err != nil {
			t.Fatal(err)
		}
		gs = append(gs, fastPathGraph{fmt.Sprintf("rr%d", d), rr})
	}
	return gs
}

// runRoundKernel runs proto for a fixed number of rounds on tp and returns
// the result's JSON and the state captured after round captureAt. The
// bias is low enough that no run settles before the capture.
func runRoundKernel(t *testing.T, proto string, n, k, rounds, captureAt int, tp topo.Sampler) (res, blob []byte) {
	t.Helper()
	ckpt := &snap.Checkpoint{
		At:   float64(captureAt),
		Sink: func(state []byte, _ float64, _ uint64) { blob = append([]byte(nil), state...) },
	}
	const seed, alpha = 11, 1.2
	var out any
	var err error
	if proto == "sync" {
		out, err = syncgen.Run(syncgen.Config{
			N: n, K: k, Alpha: alpha, Seed: seed, MaxSteps: rounds, Topo: tp, Ckpt: ckpt,
		})
	} else {
		var rule baseline.Rule
		if rule, err = baseline.NewRule(proto, xrand.New(seed).SplitNamed("rule")); err != nil {
			t.Fatal(err)
		}
		out, err = baseline.RunSync(rule, baseline.Config{
			N: n, K: k, Alpha: alpha, Seed: seed, MaxRounds: rounds, Topo: tp, Ckpt: ckpt,
		})
	}
	if err != nil {
		t.Fatal(err)
	}
	if res, err = json.Marshal(out); err != nil {
		t.Fatal(err)
	}
	return res, blob
}
