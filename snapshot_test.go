package plurality

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"os"
	"testing"

	"plurality/internal/adversary"
	"plurality/internal/cluster"
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
// format version fails with ErrSnapshotVersion, not a misparse: a newer one;
// version 4, whose leader and decentralized blobs could carry a per-shard
// payload section that the current engines no longer read; version 5,
// whose clock sections hold one generator per node; and version 6, whose
// leader and decentralized runs took C1 from their own seed.
func TestSnapshotVersionRejected(t *testing.T) {
	sn, _ := captureSnapshot(t, "leader", snapshotSpec())
	for _, v := range []int{4, 5, 6, SnapshotFormatVersion + 1} {
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
			section := func(alive int) []byte {
				w := snap.NewEncoder()
				(&adversary.Crashes{Down: make([]bool, spec.N), Alive: alive}).Layout(w)
				return w.Bytes()
			}
			honest := section(spec.N)
			if n := bytes.Count(sn.payload, honest); n != 1 {
				t.Fatalf("crash section found %d times in the payload, want once", n)
			}
			at := bytes.Index(sn.payload, honest)
			payload := append([]byte(nil), sn.payload...)
			copy(payload[at:], section(spec.N-1))
			_, err := Resume(context.Background(), &Snapshot{meta: sn.meta, payload: payload}, nil)
			if !errors.Is(err, ErrSnapshotCorrupt) {
				t.Fatalf("resume with alive count N-1 and no crashed node: got %v, want ErrSnapshotCorrupt", err)
			}
		})
	}
}

// TestResumeRejectsClusteringWithoutParticipants pins that a decentralized
// payload whose embedded clustering has no participating leader fails
// with ErrSnapshotCorrupt: formation never hands such a clustering to a
// capture, and resuming it would report a failed run that never happened.
func TestResumeRejectsClusteringWithoutParticipants(t *testing.T) {
	sn, _ := captureSnapshot(t, "decentralized", snapshotSpec())
	r := snap.NewDecoder(sn.payload)
	cl := &cluster.Clustering{}
	cl.Layout(r)
	if r.Err() != nil {
		t.Fatal(r.Err())
	}
	w := snap.NewEncoder()
	cl.Layout(w)
	rest := sn.payload[len(w.Bytes()):]
	for l := range cl.InConsensusMode {
		cl.InConsensusMode[l] = false
	}
	w = snap.NewEncoder()
	cl.Layout(w)
	payload := append(w.Bytes(), rest...)
	_, err := Resume(context.Background(), &Snapshot{meta: sn.meta, payload: payload}, nil)
	if !errors.Is(err, ErrSnapshotCorrupt) {
		t.Fatalf("resume with no participating leader: got %v, want ErrSnapshotCorrupt", err)
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

// TestSnapshotAfterResumeCanonical pins that snapshot bytes depend only on
// the simulated state: a capture at t2 taken after resuming from a capture
// at t1 equals, byte for byte, the uninterrupted run's capture at t2. The
// resumed kernel holds its pending events in another layout, so this holds
// only because the kernel encodes them in (time, seq) order.
func TestSnapshotAfterResumeCanonical(t *testing.T) {
	ctx := context.Background()
	capture := func(name string, spec Spec, at float64, from *Snapshot) []byte {
		t.Helper()
		ck := CheckpointSpec{SnapshotAt: at, Halt: true}
		var res *Result
		var err error
		if from == nil {
			spec.Checkpoint = ck
			res, err = Run(ctx, name, spec)
		} else {
			res, err = Resume(ctx, from, &ResumeOptions{Checkpoint: ck})
		}
		if err != nil {
			t.Fatal(err)
		}
		if res.Snapshot == nil {
			t.Fatalf("%s: no snapshot captured at t=%g", name, at)
		}
		blob, err := res.Snapshot.Encode()
		if err != nil {
			t.Fatal(err)
		}
		return blob
	}
	for _, name := range []string{"leader", "decentralized", "3-majority", "sync"} {
		t.Run(name, func(t *testing.T) {
			spec := snapshotSpec()
			plain, err := Run(ctx, name, spec)
			if err != nil {
				t.Fatal(err)
			}
			t1, t2 := plain.Duration/3, 2*plain.Duration/3
			first, err := DecodeSnapshot(capture(name, spec, t1, nil))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(capture(name, spec, t2, first), capture(name, spec, t2, nil)) {
				t.Error("capture after a resume differs from the uninterrupted run's capture")
			}
		})
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

// TestResumeHorizonExtension pins the long-horizon use case for both
// checkpointable asynchronous engines: a run that timed out can be resumed
// past its original deadline, because the watchdog queued for the old
// horizon re-arms at the new one.
func TestResumeHorizonExtension(t *testing.T) {
	for _, protocol := range []string{"leader", "decentralized"} {
		t.Run(protocol, func(t *testing.T) {
			spec := snapshotSpec()
			spec.MaxTime = 6 // far too short for consensus at this size
			ctx := context.Background()
			short, err := Run(ctx, protocol, spec)
			if err != nil {
				t.Fatal(err)
			}
			if !short.TimedOut {
				t.Skip("short-horizon run unexpectedly converged")
			}
			cspec := spec
			cspec.Checkpoint = CheckpointSpec{SnapshotAt: 3, Halt: true}
			half, err := Run(ctx, protocol, cspec)
			if err != nil {
				t.Fatal(err)
			}
			if half.Snapshot == nil {
				t.Fatal("no snapshot captured")
			}
			// A horizon still too short ends exactly at the new deadline: the
			// watchdog queued for the old one re-armed there, where the
			// recorder alone would stop the run at its next point past it.
			const nearer = 7.5
			near, err := Resume(ctx, half.Snapshot, &ResumeOptions{MaxTime: nearer})
			if err != nil {
				t.Fatal(err)
			}
			if !near.TimedOut || near.Duration != nearer {
				t.Errorf("resumed to horizon %g: timed out %v at %g, want a time-out at the horizon", nearer, near.TimedOut, near.Duration)
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
		})
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

// snapshotBlobGolden maps "protocol/topology[/variant]@capture-time" to
// the SHA-256 of the encoded blob captured there, on kernelGoldenSpec. The
// blobs hold the whole pending event set in (time, seq) order, the clock
// generator and every engine field, so any change to what the kernel holds
// mid-run, or to how it writes it, shows up here even when the final
// Result does not move. The variant rows add the sequential scheduler, the
// crash flags with the churning adversary's state, and the delay
// adversary's parked-message arena. The undecided-state and crash rows
// were re-recorded at EngineEpoch 3, whose recorder holds survivor
// fractions with undecided nodes in the denominator, and at EngineEpoch 4
// the sync crash row, whose MaxGenFrac counts survivors only, and every
// leader and decentralized row, whose C1 is one estimate per latency law;
// then every row, when SnapshotFormatVersion went to 7. Re-record (after a
// reviewed change only) with
//
//	PLURALITY_GOLDEN_RECORD=1 go test -run TestSnapshotBlobGolden -v .
var snapshotBlobGolden = map[string]string{
	"decentralized/complete@37":                 "0ef28a15a3df09f64bb23fe22b7a6a4cc862cdfc28afb7075bbeb6aea4701243",
	"decentralized/complete@5.5":                "9798739105d51ea0e83226129922d9f83425481ff7d6972a0ac494e687b62536",
	"decentralized/random-regular(d=4)@37":      "22a791ab5df1e0ce6dbdf5dfd87ca4b94e75fe4b8fe9b2267581fdc1f6eb8062",
	"decentralized/random-regular(d=4)@5.5":     "8126982fe228fb5097cc467e2433cbd71b8ea9d9efea9e873643997bc6f24acd",
	"leader/complete@37":                        "7d546bbfa1f2706ec50568745df39d5d4210f49ab908120c269444924c572ec7",
	"leader/complete@5.5":                       "abd80184a0995c1d7bafaad6ca4bf81f5ae8080b981a4ff11f8d00ac034d0c46",
	"leader/random-regular(d=4)@37":             "078b0fb9de2b44702afc7da879543d385bf72f9465ad12f39769d67171a21037",
	"leader/random-regular(d=4)@5.5":            "4d12ddbb05fa6d0353f7e06b930e9706ffbdcb751465bc842137757b72e7d711",
	"sync/complete@3":                           "01e931fcd59200a79fb4e4d61c2d6d5a2ce70de8cfc5dd8558397dacf60a42c3",
	"pull-voting/complete@3":                    "2053b8b3c1e657c405f6eae9edcbe4cd755cf29370f4032af8e110cd3b21879f",
	"two-choices/complete@3":                    "7ab970ba14ab1511c6e1e3758df35285612de71e3406f68cb41f4c820e809b24",
	"3-majority/complete@3":                     "026732bfb9ca81ad55c8ccb57a3c4f12321c4a84fd11800f9971baf3818f684c",
	"undecided-state/complete@3":                "9cbd406dd2ba3208fb7ba72d7c832d5595f7ce9a7926af3bf745583071142af8",
	"3-majority/complete/sequential@3":          "c510255f59c0cad0184bd1e18595d528723bd2fd5fb2cca34ff441257b9717b7",
	"sync/complete/crash(f=0.2,r=1)@3":          "f28aba925a913362f2b0a75b2a23cab268754745363e4e8463978fe09cc4fe66",
	"3-majority/complete/crash(f=0.2,r=1)@3":    "dd8ad2805f8371e480399755038fa4006148d4c3752ef748b4fc2d1eb066c777",
	"leader/complete/crash(f=0.2,r=1)@37":       "bc4c5728555b5774d6919a4d218815c26a60ae34520f732e618908c2f4ee55cf",
	"leader/complete/delay(f=0.3,x2)@37":        "48cf2d5f06abed1bfdd26aeb815e234c42c76f7ec06d6d12fb4b0617cd841142",
	"decentralized/complete/delay(f=0.3,x2)@37": "abbcdcc4367750c576aebffd2d4cb7a4615198cb958f6208578198a974af1389",
}

// blobGoldenRow is one capture of TestSnapshotBlobGolden.
type blobGoldenRow struct {
	name       string
	tp         TopologySpec
	adv        AdversarySpec
	sequential bool
	at         float64
}

// key renders the row's snapshotBlobGolden key.
func (r blobGoldenRow) key() string {
	spec := kernelGoldenSpec(r.tp)
	k := r.name + "/" + r.tp.ResolvedLabel(spec.N)
	if r.sequential {
		k += "/sequential"
	}
	if r.adv.Enabled() {
		k += "/" + r.adv.Label()
	}
	return fmt.Sprintf("%s@%g", k, r.at)
}

// blobGoldenRows lists every snapshot layout an engine can write: the
// event-ladder engines on two graphs at two capture times, each
// round-based rule, the sequential scheduler, and the adversarial
// suffixes.
func blobGoldenRows() []blobGoldenRow {
	var rows []blobGoldenRow
	for _, name := range []string{"leader", "decentralized"} {
		for _, tp := range []TopologySpec{goldenTopologies[0], goldenTopologies[2]} {
			for _, at := range []float64{5.5, 37} {
				rows = append(rows, blobGoldenRow{name: name, tp: tp, at: at})
			}
		}
	}
	complete := goldenTopologies[0]
	for _, name := range []string{"sync", "pull-voting", "two-choices", "3-majority", "undecided-state"} {
		rows = append(rows, blobGoldenRow{name: name, tp: complete, at: 3})
	}
	rows = append(rows, blobGoldenRow{name: "3-majority", tp: complete, sequential: true, at: 3})
	crash := AdversarySpec{Kind: AdversaryCrash, Fraction: 0.2, Rate: 1}
	rows = append(rows,
		blobGoldenRow{name: "sync", tp: complete, adv: crash, at: 3},
		blobGoldenRow{name: "3-majority", tp: complete, adv: crash, at: 3},
		blobGoldenRow{name: "leader", tp: complete, adv: crash, at: 37})
	delay := AdversarySpec{Kind: AdversaryDelay, Fraction: 0.3, Rate: 2}
	for _, name := range []string{"leader", "decentralized"} {
		rows = append(rows, blobGoldenRow{name: name, tp: complete, adv: delay, at: 37})
	}
	return rows
}

// TestSnapshotBlobGolden pins the encoded bytes of mid-run snapshots of
// every checkpointable engine (see blobGoldenRows).
func TestSnapshotBlobGolden(t *testing.T) {
	record := os.Getenv("PLURALITY_GOLDEN_RECORD") != ""
	for _, row := range blobGoldenRows() {
		key := row.key()
		t.Run(key, func(t *testing.T) {
			spec := kernelGoldenSpec(row.tp)
			spec.Adversary = row.adv
			spec.Baseline.Sequential = row.sequential
			spec.Checkpoint = CheckpointSpec{SnapshotAt: row.at, Halt: true}
			res, err := Run(context.Background(), row.name, spec)
			if err != nil {
				t.Fatal(err)
			}
			if res.Snapshot == nil {
				t.Fatalf("no snapshot captured at t=%g", row.at)
			}
			blob, err := res.Snapshot.Encode()
			if err != nil {
				t.Fatal(err)
			}
			got := fmt.Sprintf("%x", sha256.Sum256(blob))
			if record {
				t.Logf("RECORD %q: %q,", key, got)
				return
			}
			if want := snapshotBlobGolden[key]; got != want {
				t.Errorf("blob digest %s, golden %s", got, want)
			}
		})
	}
}
