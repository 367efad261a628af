package plurality

import (
	"bytes"
	"context"
	"encoding/json"
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
