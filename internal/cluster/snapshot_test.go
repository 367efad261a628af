package cluster

import (
	"reflect"
	"testing"

	"plurality/internal/snap"
)

// TestClusteringCodecRoundtrip pins the canonical Clustering encoding the
// decentralized engine's snapshots embed.
func TestClusteringCodecRoundtrip(t *testing.T) {
	cl, err := Form(Params{N: 400, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	w := snap.NewEncoder()
	cl.Layout(w)
	first := w.Bytes()

	got, err := decodeClustering(first)
	if err != nil {
		t.Fatal(err)
	}
	want := *cl
	want.Topo = nil
	if !reflect.DeepEqual(got, &want) {
		t.Error("decoded clustering differs from the original")
	}

	// Canonical: encoding twice yields identical bytes.
	w2 := snap.NewEncoder()
	got.Layout(w2)
	if !reflect.DeepEqual(first, w2.Bytes()) {
		t.Error("re-encoding a decoded clustering changed the bytes")
	}

	// Truncations must fail typed, never panic.
	for _, cut := range []int{0, 3, len(first) / 2, len(first) - 1} {
		if _, err := decodeClustering(first[:cut]); err == nil {
			t.Errorf("decode of %d/%d bytes succeeded, want error", cut, len(first))
		}
	}
}

func decodeClustering(b []byte) (*Clustering, error) {
	cl := &Clustering{}
	r := snap.NewDecoder(b)
	cl.Layout(r)
	return cl, r.Finish()
}
