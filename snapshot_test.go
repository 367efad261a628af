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
// payload section that the current engines no longer read; and version 5,
// whose clock sections hold one generator per node.
func TestSnapshotVersionRejected(t *testing.T) {
	sn, _ := captureSnapshot(t, "leader", snapshotSpec())
	for _, v := range []int{4, 5, SnapshotFormatVersion + 1} {
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
// fractions with undecided nodes in the denominator. Re-record (after a
// reviewed change only) with
//
//	PLURALITY_GOLDEN_RECORD=1 go test -run TestSnapshotBlobGolden -v .
var snapshotBlobGolden = map[string]string{
	"decentralized/complete@37":                 "5ca7c268b5d362873cc291298bdad1de4e3fa003c56db8d5cee7ba50fb29c1fa",
	"decentralized/complete@5.5":                "00eae4aa59aa3dd0aa2e18f84c0687b653f6692eebc8f7742fb8ba77134abf93",
	"decentralized/random-regular(d=4)@37":      "66c46a33855035808c65a2a5d84be7b2da7621c8f982415a30b25fce92127fe4",
	"decentralized/random-regular(d=4)@5.5":     "b12b9dbe2f38e9c6c06b1cc77d338972a188c619a4454354fd8ba8ab6c2b5452",
	"leader/complete@37":                        "1487bb7e027a7b9a836326198fafb6dbb9d2a7abbf2929302b38133b9a1f7ec7",
	"leader/complete@5.5":                       "90987934b3e74f75c0239397452ae583d2d0cb2e77ba204a662e789b447fc7b3",
	"leader/random-regular(d=4)@37":             "1ce4463e8526f69e099130a9e42442727fea7c53ebf30dff8cd561ea54bbaa8c",
	"leader/random-regular(d=4)@5.5":            "0df1616f4ee30055b23da34aa7ad2afea90bdb4630de041f26959d5ebef90025",
	"sync/complete@3":                           "752312fc3d28fc453d499fd272573b1af309925460e9a338c1407796649429db",
	"pull-voting/complete@3":                    "bf6b9e3e25393a321e7d968ee948c3f7b88111a0a4be9982d59462758d2e1976",
	"two-choices/complete@3":                    "a22411ae3f5e24722c49dc45dceb3df62a37056c6f9595f420e66d877d5d213a",
	"3-majority/complete@3":                     "c1421122c7af7853ab40f28b0237ec68205291a0d3d3ea5f2bbb7d501615ca86",
	"undecided-state/complete@3":                "a0185d87bf3f7cb90c565b0eb614a914947539e7de1edcd572382777d15548d4",
	"3-majority/complete/sequential@3":          "221ae733d67123dd10c3993c73578e60f092698557bf8cfc8b00a9acc1572d14",
	"sync/complete/crash(f=0.2,r=1)@3":          "365f5fc624cc6ea8529ef8eaf0dff01435f8ddf3ceac052919db31bbc47c40a4",
	"3-majority/complete/crash(f=0.2,r=1)@3":    "c59b44d0af72bb80eee4bd072b89b66e3e2a41dced804e6cc815ab302dbd1ac6",
	"leader/complete/crash(f=0.2,r=1)@37":       "dd3bd39e004c590807b54123dc08ba65f2e768a3e7b60d644a23d20083564ef4",
	"leader/complete/delay(f=0.3,x2)@37":        "0c5ba0ded73ac770488783d6431f5a0959c66bee2c75543ca1118ed9b235ab4f",
	"decentralized/complete/delay(f=0.3,x2)@37": "37220030a470749eba771dd31c751d4df1470cd2cfc50c8f613c728d56096bed",
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
