package plurality

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"runtime"
	"strings"
	"testing"
)

// TestCanonicalBytesVersionTagged pins the encoding's self-description: the
// magic and format version lead the bytes, so a future layout change (with
// its version bump) can never collide with today's keys.
func TestCanonicalBytesVersionTagged(t *testing.T) {
	b, err := Spec{N: 100, K: 2, Seed: 1}.CanonicalBytes()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(b, []byte(canonicalSpecMagic)) {
		t.Fatalf("encoding does not start with %q: % x", canonicalSpecMagic, b[:16])
	}
	if got := int(b[len(canonicalSpecMagic)]) | int(b[len(canonicalSpecMagic)+1])<<8; got != canonicalSpecVersion {
		t.Fatalf("encoded version %d, want %d", got, canonicalSpecVersion)
	}
}

// TestCanonicalBytesFieldOrderInvariant decodes the same spec from two JSON
// documents with shuffled field order and checks the keys agree — the wire
// representation's field order must not leak into the identity.
func TestCanonicalBytesFieldOrderInvariant(t *testing.T) {
	docA := `{"n": 500, "k": 4, "alpha": 2, "seed": 9,
		"topology": {"kind": "ring", "width": 2},
		"adversary": {"kind": "crash", "fraction": 0.2},
		"latency": {"mean": 1.5, "kind": "exp"}}`
	docB := `{"latency": {"kind": "exp", "mean": 1.5},
		"adversary": {"fraction": 0.2, "kind": "crash"},
		"topology": {"width": 2, "kind": "ring"},
		"seed": 9, "alpha": 2, "k": 4, "n": 500}`
	var a, b Spec
	if err := json.Unmarshal([]byte(docA), &a); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(docB), &b); err != nil {
		t.Fatal(err)
	}
	ka, err := a.CanonicalBytes()
	if err != nil {
		t.Fatal(err)
	}
	kb, err := b.CanonicalBytes()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ka, kb) {
		t.Fatalf("reordered JSON documents produced different keys:\n% x\n% x", ka, kb)
	}
}

// TestCanonicalBytesDefaultFilling checks that spelling an engine default
// explicitly cannot change the key: each pair below is the same run twice,
// once with the knob left zero and once with the documented default written
// out.
func TestCanonicalBytesDefaultFilling(t *testing.T) {
	base := Spec{N: 900, K: 3, Seed: 5}
	pairs := []struct {
		name           string
		implicit, expl Spec
	}{
		{"alpha", base, func() Spec { s := base; s.Alpha = 1; return s }()},
		{"latency", base, func() Spec {
			s := base
			s.Latency = LatencySpec{Kind: "exp", Mean: 1}
			return s
		}()},
		{"topology-complete", base, func() Spec {
			s := base
			s.Topology = TopologySpec{Kind: TopologyComplete}
			return s
		}()},
		{"topology-torus-dims", func() Spec {
			s := base
			s.Topology = TopologySpec{Kind: TopologyTorus}
			return s
		}(), func() Spec {
			s := base
			s.Topology = TopologySpec{Kind: TopologyTorus, Rows: 30, Cols: 30}
			return s
		}()},
		{"topology-ring-width", func() Spec {
			s := base
			s.Topology = TopologySpec{Kind: TopologyRing}
			return s
		}(), func() Spec {
			s := base
			s.Topology = TopologySpec{Kind: TopologyRing, Width: 1, Degree: 7}
			return s
		}()},
		{"gamma", base, func() Spec { s := base; s.Sync.Gamma = 0.5; return s }()},
		{"adversary-fraction", func() Spec {
			s := base
			s.Adversary = AdversarySpec{Kind: AdversaryCrash}
			return s
		}(), func() Spec {
			s := base
			s.Adversary = AdversarySpec{Kind: AdversaryCrash, Fraction: 0.1}
			return s
		}()},
		{"adversary-delay-rate", func() Spec {
			s := base
			s.Adversary = AdversarySpec{Kind: AdversaryDelay, Fraction: 0.5}
			return s
		}(), func() Spec {
			s := base
			s.Adversary = AdversarySpec{Kind: AdversaryDelay, Fraction: 0.5, Rate: 1}
			return s
		}()},
	}
	for _, p := range pairs {
		t.Run(p.name, func(t *testing.T) {
			ka, err := p.implicit.CanonicalBytes()
			if err != nil {
				t.Fatal(err)
			}
			kb, err := p.expl.CanonicalBytes()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(ka, kb) {
				t.Fatalf("implicit and explicit defaults keyed differently")
			}
		})
	}
}

// TestCanonicalBytesDistinguishes is the other half of the identity: every
// result-affecting field must move the key.
func TestCanonicalBytesDistinguishes(t *testing.T) {
	base := Spec{N: 900, K: 3, Seed: 5}
	variants := map[string]Spec{
		"n":        {N: 901, K: 3, Seed: 5},
		"k":        {N: 900, K: 4, Seed: 5},
		"seed":     {N: 900, K: 3, Seed: 6},
		"alpha":    {N: 900, K: 3, Seed: 5, Alpha: 2},
		"eps":      {N: 900, K: 3, Seed: 5, Eps: 0.01},
		"maxtime":  {N: 900, K: 3, Seed: 5, MaxTime: 40},
		"topology": {N: 900, K: 3, Seed: 5, Topology: TopologySpec{Kind: TopologyRing}},
		"adv":      {N: 900, K: 3, Seed: 5, Adversary: AdversarySpec{Kind: AdversaryDrop}},
		"discard":  {N: 900, K: 3, Seed: 5, DiscardTrajectory: true},
		"halt":     {N: 900, K: 3, Seed: 5, Checkpoint: CheckpointSpec{SnapshotAt: 3, Halt: true}},
	}
	kb, err := base.CanonicalBytes()
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]string{string(kb): "base"}
	for name, s := range variants {
		k, err := s.CanonicalBytes()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if prev, dup := seen[string(k)]; dup {
			t.Fatalf("variant %q collides with %q", name, prev)
		}
		seen[string(k)] = name
	}
}

// TestCanonicalBytesInvalidSpec checks that unrunnable specs have no key.
func TestCanonicalBytesInvalidSpec(t *testing.T) {
	if _, err := (Spec{N: 1, K: 2}).CanonicalBytes(); err == nil {
		t.Fatal("want validation error for N=1")
	}
	if _, err := (Spec{N: 10, K: 2, Alpha: 0.5}).CanonicalBytes(); err == nil {
		t.Fatal("want validation error for Alpha in (0,1)")
	}
}

// TestCanonicalKeyEqualImpliesDigestEqual is the guarantee the result cache
// stands on: any two Specs with equal canonical keys must produce equal
// golden digests when run. Each pair spells the same run two ways (implicit
// vs explicit defaults); the digests compare the complete Results.
func TestCanonicalKeyEqualImpliesDigestEqual(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full simulations")
	}
	type pair struct {
		protocol string
		a, b     Spec
	}
	pairs := []pair{
		{"sync",
			Spec{N: 400, K: 3, Seed: 11},
			Spec{N: 400, K: 3, Seed: 11, Alpha: 1, Sync: SyncOptions{Gamma: 0.5}}},
		{"leader",
			Spec{N: 300, K: 3, Alpha: 2, Seed: 7},
			Spec{N: 300, K: 3, Alpha: 2, Seed: 7, Latency: LatencySpec{Kind: "exp", Mean: 1}}},
		{"3-majority",
			Spec{N: 600, K: 4, Alpha: 2, Seed: 3, Topology: TopologySpec{Kind: TopologyTorus}},
			Spec{N: 600, K: 4, Alpha: 2, Seed: 3, Topology: TopologySpec{Kind: TopologyTorus, Rows: 24, Cols: 25}}},
	}
	ctx := context.Background()
	for _, p := range pairs {
		t.Run(p.protocol, func(t *testing.T) {
			ka, err := p.a.CanonicalBytes()
			if err != nil {
				t.Fatal(err)
			}
			kb, err := p.b.CanonicalBytes()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(ka, kb) {
				t.Fatal("pair does not share a canonical key; the test premise is broken")
			}
			ra, err := Run(ctx, p.protocol, p.a)
			if err != nil {
				t.Fatal(err)
			}
			rb, err := Run(ctx, p.protocol, p.b)
			if err != nil {
				t.Fatal(err)
			}
			if da, db := digestResult(ra), digestResult(rb); da != db {
				t.Fatalf("equal keys, unequal digests: %s vs %s", da, db)
			}
		})
	}
}

// TestCanonicalBytesExcludesShards pins that a shard count stored with a
// spec (manifests and snapshot metadata written while Spec had a Shards
// field) never reaches the canonical encoding: whatever its value, the spec
// decodes to the same key as the spec without it, so such records share
// cache entries with current requests.
func TestCanonicalBytesExcludesShards(t *testing.T) {
	base := Spec{N: 4000, K: 3, Alpha: 2, Seed: 7}
	ref, err := base.CanonicalBytes()
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{-1, 1, 2, 8, 64} {
		b, err := withStaleShards(t, base, shards).CanonicalBytes()
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if !bytes.Equal(b, ref) {
			t.Fatalf("shards=%d changed the canonical encoding", shards)
		}
	}
}

// TestCanonicalBytesFoldsNegativeZero pins that a float field at -0 keys
// like the same field at +0. JSON with omitempty drops both, so without the
// fold a spec and its own re-marshalled wire form would key differently
// (FuzzSpecCanonical found this). Every engine compares -0 equal to 0, and
// the two spellings run to the same digest.
func TestCanonicalBytesFoldsNegativeZero(t *testing.T) {
	nz := math.Copysign(0, -1)
	crash := func(at, rate float64) AdversarySpec {
		return AdversarySpec{Kind: AdversaryCrash, Fraction: 0.2, At: at, Rate: rate}
	}
	base := Spec{N: 300, K: 3, Alpha: 2, Seed: 5, MaxTime: 30}
	set := map[string]func(s *Spec, z float64){
		"eps":            func(s *Spec, z float64) { s.Eps = z },
		"max_time":       func(s *Spec, z float64) { s.MaxTime = z },
		"record_every":   func(s *Spec, z float64) { s.RecordEvery = z },
		"alpha":          func(s *Spec, z float64) { s.Alpha = z },
		"latency.mean":   func(s *Spec, z float64) { s.Latency.Mean = z },
		"topology.p":     func(s *Spec, z float64) { s.Topology = TopologySpec{Kind: TopologyErdosRenyi, P: z} },
		"adversary.at":   func(s *Spec, z float64) { s.Adversary = crash(z, 0) },
		"adversary.rate": func(s *Spec, z float64) { s.Adversary = crash(0, z) },
		"snapshot_at":    func(s *Spec, z float64) { s.Checkpoint.SnapshotAt = z },
		"sync.gamma":     func(s *Spec, z float64) { s.Sync.Gamma = z },
	}
	for name, f := range set {
		neg, pos := base, base
		f(&neg, nz)
		f(&pos, 0)
		kn, err := neg.CanonicalBytes()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		kp, err := pos.CanonicalBytes()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(kn, kp) {
			t.Errorf("%s: -0 and +0 key differently", name)
		}
		for _, proto := range []string{"sync", "leader"} {
			rn, err := Run(context.Background(), proto, neg)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, proto, err)
			}
			rp, err := Run(context.Background(), proto, pos)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, proto, err)
			}
			if digestResult(rn) != digestResult(rp) {
				t.Errorf("%s/%s: -0 and +0 run to different digests", name, proto)
			}
		}
	}
}

// TestCanonicalBytesDrawsNoGraph pins that a key costs no graph
// construction: deriving the key of a large random-graph spec allocates a
// few hundred bytes, where its adjacency alone would take megabytes. A spec
// whose draw fails (a G(n, p) far below the connectivity threshold) still
// has a key; Run rejects it when it builds the graph.
func TestCanonicalBytesDrawsNoGraph(t *testing.T) {
	const n = 100_000
	specs := map[string]Spec{
		"random-regular": {N: n, K: 4, Alpha: 2, Seed: 1,
			Topology: TopologySpec{Kind: TopologyRandomRegular, Degree: 8}},
		"erdos-renyi": {N: n, K: 4, Alpha: 2, Seed: 1,
			Topology: TopologySpec{Kind: TopologyErdosRenyi, P: 1e-4}},
	}
	for name, spec := range specs {
		if _, err := spec.CanonicalBytes(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		const calls = 20
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < calls; i++ {
			if _, err := spec.CanonicalBytes(); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		// An adjacency is 4 bytes per edge end plus 8 per node offset:
		// 4 MB here. The bound leaves room for stray runtime allocations.
		if per := (after.TotalAlloc - before.TotalAlloc) / calls; per > 16<<10 {
			t.Errorf("%s: CanonicalBytes allocates %d bytes per call, want no graph", name, per)
		}
	}
	if _, err := Run(context.Background(), "sync", specs["erdos-renyi"]); err == nil || !strings.Contains(err.Error(), "is not connected") {
		t.Fatalf("Run on a disconnected G(n, p): err = %v, want the connectivity error", err)
	}
}

// FuzzSpecCanonical feeds Spec JSON, strictly decoded as pluralityd decodes
// request bodies, to CanonicalBytes. It must not panic, must be
// deterministic, and must give the spec re-marshalled to JSON the same key.
// Key validation is structural (see CanonicalBytes), so it may accept a
// spec the full validation rejects only when the random graph's draw is what
// fails; for small N the fuzzer checks that against validate (the kind is
// random-regular or erdos-renyi and the error is the draw's), and checks
// that a spec without a key is rejected by validate with the same error.
func FuzzSpecCanonical(f *testing.F) {
	for _, s := range []string{
		`{"n":100,"k":2,"seed":1}`,
		`{"n":100,"k":2,"seed":1,"alpha":1,"latency":{"kind":"exp","mean":1},"topology":{"kind":"complete"},"sync":{"gamma":0.5}}`,
		`{"n":10,"k":3,"seed":2,"assignment":[0,0,0,0,1,1,1,2,2,0]}`,
		`{"n":64,"k":2,"alpha":2,"seed":3,"topology":{"kind":"ring","width":2}}`,
		`{"n":144,"k":3,"seed":4,"topology":{"kind":"torus"}}`,
		`{"n":101,"k":2,"topology":{"kind":"torus"}}`,
		`{"n":100,"k":2,"seed":5,"topology":{"kind":"random-regular","degree":8}}`,
		`{"n":101,"k":2,"topology":{"kind":"random-regular","degree":3}}`,
		`{"n":20,"k":2,"seed":6,"topology":{"kind":"random-regular","degree":2,"graph_seed":7}}`,
		`{"n":200,"k":2,"seed":8,"topology":{"kind":"erdos-renyi","p":0.002}}`,
		`{"n":200,"k":2,"seed":8,"topology":{"kind":"erdos-renyi","graph_seed":9}}`,
		`{"n":300,"k":2,"alpha":2,"seed":13,"adversary":{"kind":"crash","fraction":0.2,"at":1,"rate":2}}`,
		`{"n":300,"k":2,"seed":19,"max_time":50,"latency":{"kind":"erlang"},"adversary":{"kind":"delay"}}`,
		`{"n":50,"k":2,"eps":0.1,"max_steps":9,"record_every":2,"checkpoint":{"snapshot_at":3,"halt":true},"discard_trajectory":true}`,
		`{"n":2,"k":1,"eps":-0,"max_time":-0,"adversary":{"kind":"crash","at":-0}}`,
		`{"n":1,"k":2}`,
		`{"n":10,"k":2,"alpha":0.5}`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := decodeSpecStrict(data)
		if err != nil {
			return
		}
		key, keyErr := spec.CanonicalBytes()
		small := spec.N <= 256
		if keyErr != nil {
			if small {
				if err := spec.validate(); err == nil || err.Error() != keyErr.Error() {
					t.Fatalf("key rejects with %q, full validation with %v", keyErr, err)
				}
			}
			return
		}
		again, err := spec.CanonicalBytes()
		if err != nil || !bytes.Equal(key, again) {
			t.Fatalf("second encoding differs (err %v)", err)
		}
		wire, err := json.Marshal(spec)
		if err != nil {
			t.Fatalf("re-marshal: %v", err)
		}
		back, err := decodeSpecStrict(wire)
		if err != nil {
			t.Fatalf("strict decode of re-marshalled %s: %v", wire, err)
		}
		if k2, err := back.CanonicalBytes(); err != nil || !bytes.Equal(key, k2) {
			t.Fatalf("re-marshalled %s keys differently (err %v)", wire, err)
		}
		if !small {
			return
		}
		if err := spec.validate(); err != nil {
			random := spec.Topology.Kind == TopologyRandomRegular || spec.Topology.Kind == TopologyErdosRenyi
			drawn := strings.Contains(err.Error(), "is not connected") || strings.Contains(err.Error(), "no simple connected")
			if !random || !drawn {
				t.Fatalf("%s has a key but fails validation before any draw: %v", data, err)
			}
		}
	})
}

func decodeSpecStrict(data []byte) (Spec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Spec
	err := dec.Decode(&s)
	return s, err
}
