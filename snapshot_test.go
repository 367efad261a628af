package plurality

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"plurality/internal/snap"
)

// captureSnapshot runs the named protocol with a halting checkpoint at half
// its natural duration and returns the snapshot plus the uninterrupted
// run's digest.
func captureSnapshot(t *testing.T, name string, spec Spec) (*Snapshot, string) {
	t.Helper()
	ctx := context.Background()
	plain, err := Run(ctx, name, spec)
	if err != nil {
		t.Fatal(err)
	}
	cspec := spec
	cspec.Checkpoint = CheckpointSpec{SnapshotAt: plain.Duration / 2, Halt: true}
	half, err := Run(ctx, name, cspec)
	if err != nil {
		t.Fatal(err)
	}
	if half.Snapshot == nil {
		t.Fatalf("no snapshot captured at t=%g of %g", plain.Duration/2, plain.Duration)
	}
	return half.Snapshot, digestResult(plain)
}

func snapshotSpec() Spec { return Spec{N: 300, K: 3, Alpha: 2, Seed: 42} }

// TestSnapshotVersionRejected pins that a blob recorded under any other
// format version fails with ErrSnapshotVersion, not a misparse: a newer one,
// and version 4, whose leader and decentralized blobs could carry a
// per-shard payload section that the current engines no longer read.
func TestSnapshotVersionRejected(t *testing.T) {
	sn, _ := captureSnapshot(t, "leader", snapshotSpec())
	for _, v := range []int{4, SnapshotFormatVersion + 1} {
		other := *sn
		other.meta.FormatVersion = v
		blob, err := other.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := DecodeSnapshot(blob); !errors.Is(err, ErrSnapshotVersion) {
			t.Errorf("decode of version-%d blob: got %v, want ErrSnapshotVersion", v, err)
		}
	}
}

// TestSnapshotTruncationRejected pins that every prefix of a valid blob
// fails with a typed error and never panics.
func TestSnapshotTruncationRejected(t *testing.T) {
	sn, _ := captureSnapshot(t, "3-majority", snapshotSpec())
	blob, err := sn.Encode()
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(blob); cut++ {
		_, err := DecodeSnapshot(blob[:cut])
		if err == nil {
			t.Fatalf("decode of %d/%d bytes succeeded", cut, len(blob))
		}
		if !errors.Is(err, ErrSnapshotTruncated) && !errors.Is(err, ErrSnapshotCorrupt) &&
			!errors.Is(err, ErrSnapshotFormat) {
			t.Fatalf("decode of %d/%d bytes: untyped error %v", cut, len(blob), err)
		}
	}
}

// TestSnapshotChecksumRejected pins that bit flips anywhere in the blob are
// caught by the CRC.
func TestSnapshotChecksumRejected(t *testing.T) {
	sn, _ := captureSnapshot(t, "sync", snapshotSpec())
	blob, err := sn.Encode()
	if err != nil {
		t.Fatal(err)
	}
	for _, pos := range []int{12, len(blob) / 2, len(blob) - 5} {
		tampered := append([]byte(nil), blob...)
		tampered[pos] ^= 0x40
		if _, err := DecodeSnapshot(tampered); err == nil {
			t.Errorf("decode of blob with bit flip at %d succeeded", pos)
		}
	}
}

// TestResumeTruncatedPayload pins that a payload truncated *behind* a valid
// container (lengths and CRC recomputed, so only the engine decoder can
// catch it) fails Resume with a typed error.
func TestResumeTruncatedPayload(t *testing.T) {
	sn, _ := captureSnapshot(t, "leader", snapshotSpec())
	for _, cut := range []int{0, 10, len(sn.payload) / 2, len(sn.payload) - 1} {
		tampered := &Snapshot{meta: sn.meta, payload: sn.payload[:cut]}
		blob, err := tampered.Encode()
		if err != nil {
			t.Fatal(err)
		}
		decoded, err := DecodeSnapshot(blob)
		if err != nil {
			t.Fatalf("container with %d-byte payload should decode: %v", cut, err)
		}
		_, err = Resume(context.Background(), decoded, nil)
		if err == nil {
			t.Fatalf("resume with %d/%d payload bytes succeeded", cut, len(sn.payload))
		}
		if !errors.Is(err, ErrSnapshotTruncated) && !errors.Is(err, ErrSnapshotCorrupt) {
			t.Fatalf("resume with %d/%d payload bytes: untyped error %v", cut, len(sn.payload), err)
		}
	}
}

// TestResumeRejectsInconsistentAliveCount pins that every engine checks
// its crash section on restore: a payload whose stored alive count
// disagrees with the crash flags fails with ErrSnapshotCorrupt instead of
// resuming with a wrong survivor count. The leader stores the section in
// every run, the other engines only in adversarial ones; no node crashes
// under these adversaries, so the section is N unset flags followed by N.
func TestResumeRejectsInconsistentAliveCount(t *testing.T) {
	drop := AdversarySpec{Kind: AdversaryDrop, Fraction: 0.1}
	for _, tc := range []struct {
		protocol string
		adv      AdversarySpec
	}{{"leader", AdversarySpec{}}, {"decentralized", drop}, {"sync", drop}, {"3-majority", drop}} {
		t.Run(tc.protocol, func(t *testing.T) {
			spec := snapshotSpec()
			spec.Adversary = tc.adv
			sn, _ := captureSnapshot(t, tc.protocol, spec)
			w := &snap.Writer{}
			w.Bools(make([]bool, spec.N))
			flags := w.Len()
			w.Int(spec.N)
			if n := bytes.Count(sn.payload, w.Bytes()); n != 1 {
				t.Fatalf("crash section found %d times in the payload, want once", n)
			}
			at := bytes.Index(sn.payload, w.Bytes()) + flags
			payload := append([]byte(nil), sn.payload...)
			alive := &snap.Writer{}
			alive.Int(spec.N - 1)
			copy(payload[at:], alive.Bytes())
			_, err := Resume(context.Background(), &Snapshot{meta: sn.meta, payload: payload}, nil)
			if !errors.Is(err, ErrSnapshotCorrupt) {
				t.Fatalf("resume with alive count N-1 and no crashed node: got %v, want ErrSnapshotCorrupt", err)
			}
		})
	}
}

// TestSnapshotDeterministicEncoding pins that capturing the same state
// twice yields byte-identical blobs — what lets snapshot files themselves
// be content-addressed and golden-tested.
func TestSnapshotDeterministicEncoding(t *testing.T) {
	a, _ := captureSnapshot(t, "leader", snapshotSpec())
	b, _ := captureSnapshot(t, "leader", snapshotSpec())
	ab, err := a.Encode()
	if err != nil {
		t.Fatal(err)
	}
	bb, err := b.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if string(ab) != string(bb) {
		t.Error("two captures of the same state produced different blobs")
	}
}

// TestResumeObserver pins that a re-attached observer sees only the points
// recorded after the restore while the final trajectory stays complete.
func TestResumeObserver(t *testing.T) {
	sn, _ := captureSnapshot(t, "leader", snapshotSpec())
	at := sn.Meta().Time
	var seen []TrajectoryPoint
	res, err := Resume(context.Background(), sn, &ResumeOptions{
		Observer: ObserverFunc(func(p TrajectoryPoint) { seen = append(seen, p) }),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) == 0 {
		t.Fatal("observer saw no points")
	}
	for _, p := range seen {
		if p.Time <= at {
			t.Errorf("observer saw pre-restore point at t=%g (snapshot at %g)", p.Time, at)
		}
	}
	if len(res.Trajectory) <= len(seen) {
		t.Errorf("final trajectory (%d points) should include the pre-snapshot prefix beyond the %d observed",
			len(res.Trajectory), len(seen))
	}

	// DiscardTrajectory from the restore onward: the restored prefix is
	// kept, post-restore points stream to the observer only.
	discarded, err := Resume(context.Background(), sn, &ResumeOptions{DiscardTrajectory: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(discarded.Trajectory) >= len(res.Trajectory) {
		t.Errorf("discarding resume accumulated %d points, want fewer than the full run's %d",
			len(discarded.Trajectory), len(res.Trajectory))
	}
	for _, p := range discarded.Trajectory {
		if p.Time > at {
			t.Errorf("discarding resume accumulated post-restore point at t=%g", p.Time)
		}
	}
}

// TestResumeHorizonExtension pins the long-horizon use case: a run that
// timed out can be resumed past its original deadline.
func TestResumeHorizonExtension(t *testing.T) {
	spec := snapshotSpec()
	spec.MaxTime = 6 // far too short for consensus at this size
	ctx := context.Background()
	short, err := Run(ctx, "leader", spec)
	if err != nil {
		t.Fatal(err)
	}
	if !short.TimedOut {
		t.Skip("short-horizon run unexpectedly converged")
	}
	cspec := spec
	cspec.Checkpoint = CheckpointSpec{SnapshotAt: 3, Halt: true}
	half, err := Run(ctx, "leader", cspec)
	if err != nil {
		t.Fatal(err)
	}
	if half.Snapshot == nil {
		t.Fatal("no snapshot captured")
	}
	res, err := Resume(ctx, half.Snapshot, &ResumeOptions{MaxTime: 10_000})
	if err != nil {
		t.Fatal(err)
	}
	if res.TimedOut {
		t.Errorf("resumed run still timed out at extended horizon (duration %g)", res.Duration)
	}
	if res.Duration <= spec.MaxTime {
		t.Errorf("resumed run ended at %g, expected to pass the original deadline %g", res.Duration, spec.MaxTime)
	}
}

// TestRunBatchFromDeterminism pins warm-start batches: replication 0 is the
// exact continuation, replications are worker-count invariant, and distinct
// perturbation labels give distinct (but reproducible) futures.
func TestRunBatchFromDeterminism(t *testing.T) {
	sn, want := captureSnapshot(t, "leader", snapshotSpec())
	ctx := context.Background()
	a, err := RunBatchFrom(ctx, sn, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunBatchFrom(ctx, sn, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := digestResult(a[0]); got != want {
		t.Errorf("replication 0 digest %s != uninterrupted %s", got, want)
	}
	for i := range a {
		if digestResult(a[i]) != digestResult(b[i]) {
			t.Errorf("replication %d differs between worker counts", i)
		}
	}
	if digestResult(a[1]) == want || digestResult(a[2]) == want ||
		digestResult(a[1]) == digestResult(a[2]) {
		t.Error("perturbed replications should diverge from the continuation and each other")
	}
}

// TestSweepWarmStart pins the warm-started replication study: one frozen
// cell, Reps resumed futures, and a hard error when structural axes are
// requested.
func TestSweepWarmStart(t *testing.T) {
	sn, _ := captureSnapshot(t, "leader", snapshotSpec())
	ctx := context.Background()
	res, err := Sweep(ctx, SweepConfig{WarmStart: sn, Reps: 3, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 1 {
		t.Fatalf("warm-start sweep produced %d cells, want 1", len(res.Cells))
	}
	cell := res.Cells[0]
	if cell.N != 300 || cell.K != 3 {
		t.Errorf("cell carries %d/%d, want the snapshot's 300/3", cell.N, cell.K)
	}
	if s, ok := cell.Metrics["duration"]; !ok || s.N != 3 {
		t.Errorf("duration summary %+v, want 3 observations", s)
	}
	if _, err := Sweep(ctx, SweepConfig{WarmStart: sn, Ns: []int{100}}); err == nil {
		t.Error("warm-start sweep with a structural axis succeeded, want error")
	}
	if _, err := Sweep(ctx, SweepConfig{WarmStart: sn, Protocol: "sync"}); err == nil {
		t.Error("warm-start sweep with mismatched protocol succeeded, want error")
	}
}

// TestCheckpointSinkStreaming pins the observer-style trigger: the sink
// fires during the run and receives the same snapshot Result.Snapshot
// carries; without Halt the run continues to its normal end.
func TestCheckpointSinkStreaming(t *testing.T) {
	spec := snapshotSpec()
	ctx := context.Background()
	plain, err := Run(ctx, "leader", spec)
	if err != nil {
		t.Fatal(err)
	}
	var streamed *Snapshot
	cspec := spec
	cspec.Checkpoint = CheckpointSpec{
		SnapshotAt: plain.Duration / 2,
		Sink:       func(s *Snapshot) { streamed = s },
	}
	res, err := Run(ctx, "leader", cspec)
	if err != nil {
		t.Fatal(err)
	}
	if streamed == nil || res.Snapshot != streamed {
		t.Fatal("sink did not receive the run's snapshot")
	}
	// Without Halt the run finishes normally and is unperturbed by the
	// capture: the digest matches the checkpoint-free run.
	if digestResult(res) != digestResult(plain) {
		t.Error("non-halting capture perturbed the run")
	}
	// And the captured state resumes to the same end state.
	resumed, err := Resume(ctx, streamed, nil)
	if err != nil {
		t.Fatal(err)
	}
	if digestResult(resumed) != digestResult(plain) {
		t.Error("snapshot from a non-halting capture resumed to a different result")
	}
}

// FuzzDecodeSnapshot pins that the wire-format decoder never panics,
// whatever the input — the checkpoint files cross machine and version
// boundaries, so hostile or rotted bytes must fail typed.
func FuzzDecodeSnapshot(f *testing.F) {
	spec := Spec{N: 64, K: 2, Alpha: 2, Seed: 1}
	ctx := context.Background()
	plain, err := Run(ctx, "two-choices", spec)
	if err != nil {
		f.Fatal(err)
	}
	cspec := spec
	cspec.Checkpoint = CheckpointSpec{SnapshotAt: plain.Duration / 2, Halt: true}
	half, err := Run(ctx, "two-choices", cspec)
	if err != nil {
		f.Fatal(err)
	}
	if half.Snapshot != nil {
		if blob, err := half.Snapshot.Encode(); err == nil {
			f.Add(blob)
			f.Add(blob[:len(blob)/2])
			f.Add(blob[:11])
		}
	}
	// An adversarial blob seeds the corpus too: its payload carries the
	// crash flags, adversary RNG and parked-message suffix the honest blob
	// lacks, so mutations exercise those decode paths.
	aspec := spec
	aspec.Adversary = AdversarySpec{Kind: AdversaryCrash, Fraction: 0.3, Rate: 2}
	aplain, err := Run(ctx, "two-choices", aspec)
	if err != nil {
		f.Fatal(err)
	}
	aspec.Checkpoint = CheckpointSpec{SnapshotAt: aplain.Duration / 2, Halt: true}
	ahalf, err := Run(ctx, "two-choices", aspec)
	if err != nil {
		f.Fatal(err)
	}
	if ahalf.Snapshot != nil {
		if blob, err := ahalf.Snapshot.Encode(); err == nil {
			f.Add(blob)
			f.Add(blob[:len(blob)-3])
		}
	}
	// An event-ladder blob rounds out the corpus: the leader engine's
	// payload carries the ladder, the Poisson clocks and the delay
	// adversary's parked-message arena.
	lspec := spec
	lspec.Adversary = AdversarySpec{Kind: AdversaryDelay, Fraction: 0.3, Rate: 2}
	lplain, err := Run(ctx, "leader", lspec)
	if err != nil {
		f.Fatal(err)
	}
	lspec.Checkpoint = CheckpointSpec{SnapshotAt: lplain.Duration / 2, Halt: true}
	lhalf, err := Run(ctx, "leader", lspec)
	if err != nil {
		f.Fatal(err)
	}
	if lhalf.Snapshot != nil {
		if blob, err := lhalf.Snapshot.Encode(); err == nil {
			f.Add(blob)
			f.Add(blob[:len(blob)-7])
		}
	}
	f.Add([]byte(snapshotMagic))
	f.Add([]byte("PLURSNAPxxxxxxxxxxxx"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		sn, err := DecodeSnapshot(data)
		if err != nil {
			return
		}
		// A decodable blob must re-encode cleanly.
		if _, err := sn.Encode(); err != nil {
			t.Errorf("decoded snapshot failed to re-encode: %v", err)
		}
	})
}
