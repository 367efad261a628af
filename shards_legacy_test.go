package plurality

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"reflect"
	"strings"
	"testing"
)

// This file pins what remains of sharded execution, which split one
// asynchronous run across parallel event ladders and was removed in favour
// of per-replication parallelism (RunBatch, Sweep, the pluralityd pool):
// specs stored with a "shards" field still decode, the field changes
// nothing, strict decoders reject it, snapshots from the format version
// that could carry a per-shard section fail typed, and results do not
// depend on how a batch is split across workers.

// withStaleShards round-trips spec through its JSON wire form with a
// "shards" member added, the way records written while Spec had a Shards
// field decode today.
func withStaleShards(t *testing.T, spec Spec, shards int) Spec {
	t.Helper()
	raw, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	m["shards"] = shards
	if raw, err = json.Marshal(m); err != nil {
		t.Fatal(err)
	}
	var out Spec
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatalf("lenient decode of a spec with shards=%d: %v", shards, err)
	}
	return out
}

// invarianceAdversaries are the fault models the invariance matrix crosses
// with the protocols and topologies. Severities are mild so the planted
// plurality always survives: heavier delay (f=0.3, ×2) can flip the winner
// on the sparse decentralized cells — the paper's theorems cover the honest
// model only — and an upset cell would test the regime, not invariance.
var invarianceAdversaries = map[string]AdversarySpec{
	"honest": {},
	"crash":  {Kind: AdversaryCrash, Fraction: 0.1, At: 2, Seed: 5},
	"delay":  {Kind: AdversaryDelay, Fraction: 0.2, Rate: 1.5, Seed: 5},
}

// invarianceSpec is the matrix cell: the golden-matrix shape at a strong
// planted bias (alpha 9), so the decentralized protocol's cluster endgame,
// which carries a scale-free upset probability on the sparse reference
// graphs, does not make the non-vacuity check below fragile.
func invarianceSpec(tp TopologySpec) Spec {
	return Spec{N: 600, K: 3, Alpha: 9, Seed: 11, Topology: tp}
}

// TestShardInvariance pins that splitting work across workers is invisible
// in the results. A batch is sharded across workers per replication, never
// within one run, so for both event-ladder protocols across the reference
// topologies and fault models every replication of RunBatch must digest
// identically at 1, 2, 3 and 7 workers — and the serial batch must have the
// plurality winning its first replication, so the equality is not vacuous.
func TestShardInvariance(t *testing.T) {
	const reps = 3
	for _, name := range []string{"leader", "decentralized"} {
		for _, tp := range goldenTopologies {
			for advName, adv := range invarianceAdversaries {
				spec := invarianceSpec(tp)
				spec.Adversary = adv
				if name == "leader" && tp.Kind != TopologyComplete {
					// The leader protocol's generation budget is derived from
					// complete-graph mixing, so its sparse cells exhaust the
					// derived horizon short of unanimity. Cap the horizon so
					// the cells stay cheap; the capped results must still
					// agree at every worker count.
					spec.MaxTime = 500
				}
				key := fmt.Sprintf("%s/%s/%s", name, tp.ResolvedLabel(spec.N), advName)
				t.Run(key, func(t *testing.T) {
					if testing.Short() && tp.Kind != TopologyComplete {
						t.Skip("sparse-topology invariance column skipped in -short mode")
					}
					ctx := context.Background()
					ref, err := RunBatch(ctx, name, spec, reps, 1)
					if err != nil {
						t.Fatal(err)
					}
					if !ref[0].PluralityWon {
						t.Fatalf("%s serial batch lost the plurality in replication 0", key)
					}
					for _, workers := range []int{2, 3, 7} {
						got, err := RunBatch(ctx, name, spec, reps, workers)
						if err != nil {
							t.Fatalf("workers=%d: %v", workers, err)
						}
						for i := range ref {
							if a, b := digestResult(got[i]), digestResult(ref[i]); a != b {
								t.Errorf("workers=%d replication %d digest %s != serial %s", workers, i, a, b)
							}
						}
					}
				})
			}
		}
	}
}

// TestShardsValidationMatrix pins, per registered protocol, how a "shards"
// member is treated now that no protocol shards: a strict decoder (the one
// pluralityd applies to request bodies) rejects it by name, and a lenient
// one (stored manifests, snapshot metadata) drops it whatever its value, so
// the run is the one the spec without it describes and reports no shard
// count.
func TestShardsValidationMatrix(t *testing.T) {
	for _, name := range Protocols() {
		t.Run(name, func(t *testing.T) {
			spec := Spec{N: 300, K: 2, Alpha: 3, Seed: 9}
			dec := json.NewDecoder(strings.NewReader(`{"n":300,"k":2,"alpha":3,"seed":9,"shards":2}`))
			dec.DisallowUnknownFields()
			var strict Spec
			if err := dec.Decode(&strict); err == nil || !strings.Contains(err.Error(), "shards") {
				t.Fatalf("strict decode of a spec with shards: err=%v, want an unknown-field error naming it", err)
			}
			for _, shards := range []int{-1, 2, spec.N + 1} {
				if got := withStaleShards(t, spec, shards); !reflect.DeepEqual(got, spec) {
					t.Fatalf("shards=%d decoded to %+v, want %+v", shards, got, spec)
				}
			}
			ctx := context.Background()
			want, err := Run(ctx, name, spec)
			if err != nil {
				t.Fatal(err)
			}
			res, err := Run(ctx, name, withStaleShards(t, spec, 2))
			if err != nil {
				t.Fatal(err)
			}
			if _, ok := res.Stats["shards"]; ok {
				t.Errorf("Stats reports a shard count: %v", res.Stats["shards"])
			}
			if got := digestResult(res); got != digestResult(want) {
				t.Errorf("run of the decoded spec digests %s, want %s", got, digestResult(want))
			}
		})
	}
}

// TestShardsOneIsSerial pins the compatibility half of the contract at the
// public API: a spec stored with Shards: 1 runs the serial kernel and
// reproduces the golden digest byte for byte.
func TestShardsOneIsSerial(t *testing.T) {
	for _, name := range []string{"leader", "decentralized"} {
		for _, tp := range goldenTopologies {
			spec := withStaleShards(t, kernelGoldenSpec(tp), 1)
			key := fmt.Sprintf("%s/%s", name, tp.ResolvedLabel(spec.N))
			t.Run(key, func(t *testing.T) {
				if testing.Short() && tp.Kind != TopologyComplete {
					t.Skip("sparse-topology column skipped in -short mode")
				}
				res, err := Run(context.Background(), name, spec)
				if err != nil {
					t.Fatal(err)
				}
				if got := digestResult(res); got != kernelGolden[key] {
					t.Errorf("Shards=1 digest %s != serial golden %s: the serial path is no longer byte-identical", got, kernelGolden[key])
				}
			})
		}
	}
}

// encodeRawSnapshot frames an arbitrary version, metadata JSON and payload
// exactly as Snapshot.Encode does, checksum included, so tests can build
// blobs that Encode itself no longer writes.
func encodeRawSnapshot(version uint16, meta, payload []byte) []byte {
	buf := append([]byte(nil), snapshotMagic...)
	buf = binary.LittleEndian.AppendUint16(buf, version)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(meta)))
	buf = append(buf, meta...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(payload)))
	buf = append(buf, payload...)
	return binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
}

// TestShardedResumeShardCountMismatch pins the typed rejection of blobs
// from sharded runs. Such a blob was written at format version 4 with the
// shard count in its metadata and a per-shard payload section; the current
// engines cannot read that section, so for both event-ladder protocols a
// version-4 blob naming a shard count fails with ErrSnapshotVersion before
// any state is decoded. The version, not the stale field, is what decides:
// a current-version blob whose metadata carries "shards" resumes to the
// uninterrupted run.
func TestShardedResumeShardCountMismatch(t *testing.T) {
	ctx := context.Background()
	for _, name := range []string{"leader", "decentralized"} {
		t.Run(name, func(t *testing.T) {
			sn, want := captureSnapshot(t, name, Spec{N: 600, K: 3, Alpha: 2.5, Seed: 7})
			blob, err := sn.Encode()
			if err != nil {
				t.Fatal(err)
			}
			dec, err := DecodeSnapshot(blob)
			if err != nil {
				t.Fatal(err)
			}
			for _, version := range []int{4, SnapshotFormatVersion} {
				meta := dec.meta
				meta.FormatVersion = version
				raw, err := json.Marshal(meta)
				if err != nil {
					t.Fatal(err)
				}
				raw = bytes.Replace(raw, []byte(`"spec":{`), []byte(`"spec":{"shards":3,`), 1)
				if !bytes.Contains(raw, []byte(`"shards":3`)) {
					t.Fatalf("metadata %s has no spec object to tag", raw)
				}
				stale := encodeRawSnapshot(uint16(version), raw, dec.payload)
				got, err := DecodeSnapshot(stale)
				if version != SnapshotFormatVersion {
					if !errors.Is(err, ErrSnapshotVersion) {
						t.Errorf("decode of a version-%d blob with shards: err=%v, want ErrSnapshotVersion", version, err)
					}
					continue
				}
				if err != nil {
					t.Fatalf("decode of a current blob with a stale shards field: %v", err)
				}
				res, err := Resume(ctx, got, nil)
				if err != nil {
					t.Fatal(err)
				}
				if d := digestResult(res); d != want {
					t.Errorf("resumed digest %s != uninterrupted %s", d, want)
				}
			}
		})
	}
}
