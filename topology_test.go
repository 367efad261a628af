package plurality

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"testing"
)

// goldenHashes are SHA-256 digests of json.Marshal(*Result) captured on the
// pre-topology code (PR 1) for every registered protocol under a fixed
// seed. The zero-value TopologySpec must keep reproducing these bytes: the
// clique fast path consumes randomness exactly like the historical
// per-engine sampleOther helpers, so introducing the topology layer is not
// allowed to move a single draw. The leader and decentralized hashes were
// re-recorded at EngineEpoch 2 (superposed clock, ziggurat exponential),
// undecided-state's at EngineEpoch 3, when undecided nodes joined the
// population its fractions and consensus are measured against, and the
// leader and decentralized hashes again at EngineEpoch 4 (exact ε-times,
// one C1 per latency law).
var goldenHashes = map[string]string{
	"sync":            "00f7ef3a569a0d877556379109344cdcd5b54f4842872e9aa50197e5f86e9505",
	"leader":          "7130e1bba13764e49172a0106eec8c5d1c9b276e6c6c73662d31e2cbb30bdebd",
	"decentralized":   "87372959dd11b692784e146da18380a2144c424753ba0f9ed293a0c99f469f55",
	"pull-voting":     "20a91b27636f72ddd13c2c143268d15792eee198e267b80d98f5fd4b124b8a39",
	"two-choices":     "e3d3942182f57f1f4ba64b58bed26d3db1d384469b7b7e28cf03818248331482",
	"3-majority":      "c6c2f4ff1642dcfbd59f633e58a30dc25d2ec280138ad9a5cb3a248958097262",
	"undecided-state": "20c0d60004979677308151520710957e26c1a14d9c7319b34ecfed32c58c15a3",
}

// goldenSpec is the instance the hashes were captured with.
func goldenSpec(name string) Spec {
	spec := Spec{N: 512, K: 4, Alpha: 2, Seed: 11}
	if name == "leader" || name == "decentralized" {
		spec.N = 256
		spec.K = 3
	}
	return spec
}

func TestDefaultTopologyByteIdenticalToPrePR(t *testing.T) {
	for _, name := range Protocols() {
		want, ok := goldenHashes[name]
		if !ok {
			t.Errorf("no golden hash for protocol %q; capture one when adding protocols", name)
			continue
		}
		res, err := Run(context.Background(), name, goldenSpec(name))
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		blob, err := json.Marshal(res)
		if err != nil {
			t.Errorf("%s: marshal: %v", name, err)
			continue
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(blob)); got != want {
			t.Errorf("%s: default-topology result drifted from the pre-topology golden\n got %s\nwant %s",
				name, got, want)
		}
	}
}

func TestTopologiesListsAllKinds(t *testing.T) {
	kinds := Topologies()
	want := []string{TopologyComplete, TopologyRing, TopologyTorus,
		TopologyRandomRegular, TopologyErdosRenyi}
	if len(kinds) != len(want) {
		t.Fatalf("Topologies() = %v, want %v", kinds, want)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("Topologies() = %v, want %v", kinds, want)
		}
	}
}

func TestTopologyValidation(t *testing.T) {
	bad := []struct {
		name string
		spec Spec
	}{
		{"unknown kind", Spec{N: 100, K: 2, Topology: TopologySpec{Kind: "smallworld"}}},
		{"ring too wide", Spec{N: 10, K: 2, Topology: TopologySpec{Kind: TopologyRing, Width: 5}}},
		{"torus dims mismatch", Spec{N: 100, K: 2, Topology: TopologySpec{Kind: TopologyTorus, Rows: 9, Cols: 9}}},
		{"torus prime n", Spec{N: 101, K: 2, Topology: TopologySpec{Kind: TopologyTorus}}},
		{"torus thin", Spec{N: 100, K: 2, Topology: TopologySpec{Kind: TopologyTorus, Rows: 2, Cols: 50}}},
		{"regular odd nd", Spec{N: 101, K: 2, Topology: TopologySpec{Kind: TopologyRandomRegular, Degree: 3}}},
		{"regular degree 1", Spec{N: 100, K: 2, Topology: TopologySpec{Kind: TopologyRandomRegular, Degree: 1}}},
		{"er p too big", Spec{N: 100, K: 2, Topology: TopologySpec{Kind: TopologyErdosRenyi, P: 1.5}}},
		{"er disconnected", Spec{N: 500, K: 2, Seed: 1, Topology: TopologySpec{Kind: TopologyErdosRenyi, P: 0.001}}},
	}
	for _, c := range bad {
		if _, err := Run(context.Background(), "sync", c.spec); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
	// The good kinds all run end to end on a protocol from each family.
	good := []TopologySpec{
		{},
		{Kind: TopologyComplete},
		{Kind: TopologyRing, Width: 8},
		{Kind: TopologyTorus}, // 144 = 12x12
		{Kind: TopologyRandomRegular, Degree: 8},
		{Kind: TopologyErdosRenyi, P: 0.1},
	}
	for _, tp := range good {
		for _, proto := range []string{"sync", "3-majority"} {
			spec := Spec{N: 144, K: 2, Alpha: 4, Seed: 3, MaxSteps: 4000, Topology: tp}
			res, err := Run(context.Background(), proto, spec)
			if err != nil {
				t.Errorf("%s on %s: %v", proto, tp.Label(), err)
				continue
			}
			if res.Winner < 0 || res.Winner >= 2 {
				t.Errorf("%s on %s: winner %d out of range", proto, tp.Label(), res.Winner)
			}
		}
	}
}

func TestTopologyStatsSurfaced(t *testing.T) {
	spec := Spec{N: 144, K: 2, Alpha: 4, Seed: 3, MaxSteps: 2000,
		Topology: TopologySpec{Kind: TopologyTorus}}
	res, err := Run(context.Background(), "sync", spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats["topology_nodes"] != 144 {
		t.Errorf("topology_nodes = %v, want 144", res.Stats["topology_nodes"])
	}
	if res.Stats["topology_avg_degree"] != 4 {
		t.Errorf("topology_avg_degree = %v, want 4", res.Stats["topology_avg_degree"])
	}
	// The complete graph must not grow new stats keys (golden guarantee).
	res, err = Run(context.Background(), "sync", Spec{N: 128, K: 2, Alpha: 4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := res.Stats["topology_nodes"]; ok {
		t.Error("complete topology leaked topology_nodes into Stats")
	}
}

func TestTopologyDeterminism(t *testing.T) {
	spec := Spec{N: 200, K: 2, Alpha: 3, Seed: 9, MaxSteps: 3000,
		Topology: TopologySpec{Kind: TopologyRandomRegular, Degree: 6}}
	a, err := Run(context.Background(), "sync", spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(context.Background(), "sync", spec)
	if err != nil {
		t.Fatal(err)
	}
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	if string(ja) != string(jb) {
		t.Error("same (spec, seed) produced different results on random-regular")
	}
	// A pinned GraphSeed must fix the graph while the run seed varies.
	spec.Topology.GraphSeed = 77
	if _, err := Run(context.Background(), "sync", spec); err != nil {
		t.Fatalf("pinned GraphSeed run: %v", err)
	}
}

func TestSweepTopologyAxis(t *testing.T) {
	res, err := Sweep(context.Background(), SweepConfig{
		Protocol: "3-majority",
		Base:     Spec{Seed: 1, MaxSteps: 2000},
		Ns:       []int{144},
		Ks:       []int{2},
		Alphas:   []float64{4},
		Reps:     2,
		Topologies: []TopologySpec{
			{},
			{Kind: TopologyTorus},
			{Kind: TopologyRing, Width: 4},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 3 {
		t.Fatalf("got %d cells, want 3", len(res.Cells))
	}
	// Labels reflect the graphs the cells actually ran on: default torus
	// dims resolve per n (144 = 12x12).
	wantLabels := []string{"complete", "torus(12x12)", "ring(w=4)"}
	for i, cell := range res.Cells {
		if cell.Topology != wantLabels[i] {
			t.Errorf("cell %d topology = %q, want %q", i, cell.Topology, wantLabels[i])
		}
	}
	table := res.Render()
	for _, l := range wantLabels {
		if !strings.Contains(table, l) {
			t.Errorf("rendered table misses topology label %q:\n%s", l, table)
		}
	}
	if !strings.Contains(res.CSV(), "topology") {
		t.Error("CSV misses the topology column")
	}
}

func TestInfoTopologyAware(t *testing.T) {
	for _, name := range Protocols() {
		info, err := Info(name)
		if err != nil {
			t.Fatal(err)
		}
		if !info.TopologyAware {
			t.Errorf("built-in protocol %q not marked TopologyAware", name)
		}
	}
}

func TestTopologyLabel(t *testing.T) {
	cases := []struct {
		spec TopologySpec
		want string
	}{
		{TopologySpec{}, "complete"},
		{TopologySpec{Kind: TopologyRing}, "ring"},
		{TopologySpec{Kind: TopologyRing, Width: 3}, "ring(w=3)"},
		{TopologySpec{Kind: TopologyTorus, Rows: 4, Cols: 8}, "torus(4x8)"},
		{TopologySpec{Kind: TopologyTorus}, "torus"},
		{TopologySpec{Kind: TopologyRandomRegular}, "random-regular"},
		{TopologySpec{Kind: TopologyErdosRenyi, P: 0.25}, "erdos-renyi(p=0.25)"},
	}
	for _, c := range cases {
		if got := c.spec.Label(); got != c.want {
			t.Errorf("Label(%+v) = %q, want %q", c.spec, got, c.want)
		}
	}
}

func TestTopologyResolve(t *testing.T) {
	cases := []struct {
		spec TopologySpec
		n    int
		want string // Label of the resolved spec
	}{
		{TopologySpec{}, 100, "complete"},
		{TopologySpec{Kind: TopologyRing}, 100, "ring(w=1)"},
		{TopologySpec{Kind: TopologyTorus}, 1024, "torus(32x32)"},
		{TopologySpec{Kind: TopologyTorus}, 900, "torus(30x30)"},
		{TopologySpec{Kind: TopologyTorus, Rows: 25}, 100, "torus(25x4)"},
		{TopologySpec{Kind: TopologyTorus, Cols: 20}, 100, "torus(5x20)"},
		{TopologySpec{Kind: TopologyRandomRegular}, 100, "random-regular(d=4)"},
	}
	for _, c := range cases {
		r, err := c.spec.Resolve(c.n)
		if err != nil {
			t.Errorf("Resolve(%+v, %d): %v", c.spec, c.n, err)
			continue
		}
		if got := r.Label(); got != c.want {
			t.Errorf("Resolve(%+v, %d).Label() = %q, want %q", c.spec, c.n, got, c.want)
		}
	}
	// Resolved ER default P matches what build uses (connectivity default).
	r, err := TopologySpec{Kind: TopologyErdosRenyi}.Resolve(1000)
	if err != nil {
		t.Fatal(err)
	}
	if r.P <= math.Log(1000)/1000 || r.P > 1 {
		t.Errorf("resolved default P = %v below the connectivity threshold", r.P)
	}
	if _, err := (TopologySpec{Kind: TopologyTorus}).Resolve(101); err == nil {
		t.Error("Resolve accepted a prime-n default torus")
	}
	if _, err := (TopologySpec{Kind: TopologyTorus, Rows: 7}).Resolve(100); err == nil {
		t.Error("Resolve accepted rows that do not divide N")
	}
	if _, err := (TopologySpec{Kind: "nope"}).Resolve(100); err == nil {
		t.Error("Resolve accepted an unknown kind")
	}
}
