package plurality

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"testing"
)

// TestPeriodicCheckpointMatchesChain pins CheckpointSpec.Every against the
// chain of halted runs it replaces: capture at SnapshotAt with Halt, resume
// with SnapshotAt = Meta().Time + every and Halt again, until the run ends.
// One run with Every must hand its sink the same blobs, byte for byte and
// in the same order, and return the Result JSON of an uninterrupted run.
func TestPeriodicCheckpointMatchesChain(t *testing.T) {
	ctx := context.Background()
	type row struct {
		label, name string
		spec        Spec
	}
	var rows []row
	for _, name := range []string{"sync", "leader", "decentralized", "pull-voting", "two-choices", "3-majority", "undecided-state"} {
		rows = append(rows, row{name, name, snapshotSpec()})
	}
	seq := snapshotSpec()
	seq.Baseline.Sequential = true
	rr := snapshotSpec()
	rr.Topology = TopologySpec{Kind: TopologyRandomRegular, Degree: 8}
	rr.DiscardTrajectory = true
	crash := snapshotSpec()
	crash.Adversary = AdversarySpec{Kind: AdversaryCrash, Fraction: 0.2, Rate: 1}
	rows = append(rows,
		row{"3-majority/sequential", "3-majority", seq},
		row{"3-majority/rr8-discard", "3-majority", rr},
		row{"sync/rr8-discard", "sync", rr},
		row{"leader/crash", "leader", crash})

	for _, r := range rows {
		t.Run(r.label, func(t *testing.T) {
			plain, err := Run(ctx, r.name, r.spec)
			if err != nil {
				t.Fatal(err)
			}
			every := plain.Duration / 4

			var chain [][]byte
			var snap *Snapshot
			for {
				ck := CheckpointSpec{Halt: true}
				var res *Result
				if snap == nil {
					ck.SnapshotAt = every
					spec := r.spec
					spec.Checkpoint = ck
					res, err = Run(ctx, r.name, spec)
				} else {
					ck.SnapshotAt = snap.Meta().Time + every
					res, err = Resume(ctx, snap, &ResumeOptions{
						DiscardTrajectory: r.spec.DiscardTrajectory, Checkpoint: ck})
				}
				if err != nil {
					t.Fatal(err)
				}
				if res.Snapshot == nil {
					break
				}
				snap = res.Snapshot
				blob, err := snap.Encode()
				if err != nil {
					t.Fatal(err)
				}
				chain = append(chain, blob)
			}
			if len(chain) < 2 {
				t.Fatalf("chain captured %d snapshots, want >= 2", len(chain))
			}

			var periodic [][]byte
			spec := r.spec
			spec.Checkpoint = CheckpointSpec{SnapshotAt: every, Every: every, Sink: func(s *Snapshot) {
				blob, err := s.Encode()
				if err != nil {
					t.Error(err)
				}
				periodic = append(periodic, blob)
			}}
			res, err := Run(ctx, r.name, spec)
			if err != nil {
				t.Fatal(err)
			}
			if len(periodic) != len(chain) {
				t.Fatalf("periodic capture took %d snapshots, the chain %d", len(periodic), len(chain))
			}
			for i := range chain {
				if !bytes.Equal(periodic[i], chain[i]) {
					t.Errorf("capture %d differs from the chain's", i+1)
				}
			}
			got, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			want, err := json.Marshal(plain)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("periodic run's Result differs from the uninterrupted run's:\n got %s\nwant %s", got, want)
			}
		})
	}
}

// TestCheckpointEveryRuntimeOnly pins that Every is validated like
// SnapshotAt and stays out of the wire form and the canonical key.
func TestCheckpointEveryRuntimeOnly(t *testing.T) {
	spec := snapshotSpec()
	base, err := spec.CanonicalBytes()
	if err != nil {
		t.Fatal(err)
	}
	spec.Checkpoint.Every = 3
	key, err := spec.CanonicalBytes()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(key, base) {
		t.Error("Checkpoint.Every entered the canonical bytes")
	}
	wire, err := json.Marshal(spec.Checkpoint)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(wire, []byte("every")) {
		t.Errorf("Checkpoint.Every has a wire form: %s", wire)
	}
	for _, bad := range []float64{-1, math.Inf(1), math.NaN()} {
		spec.Checkpoint.Every = bad
		if _, err := Run(context.Background(), "sync", spec); err == nil {
			t.Errorf("Run accepted Checkpoint.Every = %v", bad)
		}
	}
}
