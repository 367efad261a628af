package plurality

import (
	"context"
	"errors"
	"testing"
)

// FuzzEnginePayload pins that no engine payload panics Resume. The blob
// CRC is no MAC: a payload with a recomputed CRC reaches the engines from
// a snapshot file or the daemon's store, so every engine's restore must
// reject a state its run could never reach — out-of-range node, contact
// and leader ids in pending events, generations outside [0, G*], tallies
// that disagree with node state, a recorder ahead of the resume point —
// with a typed error instead of indexing out of range later. The first
// input byte picks the captured run whose header the payload is resumed
// under; each run halts two time units (or rounds) past its capture, which
// bounds the work per input.
func FuzzEnginePayload(f *testing.F) {
	ctx := context.Background()
	seeds := []struct {
		protocol string
		adv      AdversarySpec
	}{
		{"leader", AdversarySpec{}},
		{"decentralized", AdversarySpec{}},
		{"sync", AdversarySpec{}},
		{"pull-voting", AdversarySpec{}},
		{"two-choices", AdversarySpec{}},
		{"3-majority", AdversarySpec{}},
		{"undecided-state", AdversarySpec{}},
		// The adversarial suffixes: crash flags, adversary state and the
		// delay adversary's parked-message arena.
		{"decentralized", AdversarySpec{Kind: AdversaryDelay, Fraction: 0.3, Rate: 2}},
		{"3-majority", AdversarySpec{Kind: AdversaryCrash, Fraction: 0.2, Rate: 1}},
	}
	metas := make([]SnapshotMeta, len(seeds))
	for i, s := range seeds {
		spec := Spec{N: 64, K: 3, Alpha: 2, Seed: 1, Adversary: s.adv}
		plain, err := Run(ctx, s.protocol, spec)
		if err != nil {
			f.Fatal(err)
		}
		spec.Checkpoint = CheckpointSpec{SnapshotAt: plain.Duration / 2, Halt: true}
		half, err := Run(ctx, s.protocol, spec)
		if err != nil {
			f.Fatal(err)
		}
		if half.Snapshot == nil {
			f.Fatalf("%s: no snapshot at t=%g", s.protocol, spec.Checkpoint.SnapshotAt)
		}
		metas[i] = half.Snapshot.meta
		f.Add(uint8(i), half.Snapshot.payload)
	}
	f.Fuzz(func(t *testing.T, which uint8, payload []byte) {
		meta := metas[int(which)%len(metas)]
		opts := &ResumeOptions{Checkpoint: CheckpointSpec{SnapshotAt: meta.Time + 2, Halt: true}}
		_, err := Resume(ctx, &Snapshot{meta: meta, payload: payload}, opts)
		if err != nil && !errors.Is(err, ErrSnapshotCorrupt) && !errors.Is(err, ErrSnapshotTruncated) {
			t.Fatalf("%s: untyped resume error: %v", meta.Protocol, err)
		}
	})
}
