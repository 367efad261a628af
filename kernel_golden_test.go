package plurality

import (
	"context"
	"crypto/sha256"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// This file pins the event-kernel refactor: the typed, zero-allocation
// kernel must produce byte-identical Results to the closure-heap kernel it
// replaced. The digests below were recorded on the pre-refactor kernel
// (commit 85af9cc) for every registered protocol crossed with the three
// reference topologies; any change to event ordering, RNG draw order or
// engine arithmetic shows up as a digest mismatch. The leader and
// decentralized columns were re-recorded once at EngineEpoch 2, when the
// superposed Poisson clock and the ziggurat exponential changed their
// streams on purpose; TestDistributionGolden checks that their law held.
// The undecided-state row was re-recorded at EngineEpoch 3, when undecided
// nodes joined the population its fractions and consensus count, and the
// leader and decentralized rows at EngineEpoch 4, when their ε-times became
// exact and C1 became one estimate per latency law.
//
// To re-record after an intentional, reviewed behaviour change:
//
//	PLURALITY_GOLDEN_RECORD=1 go test -run TestKernelGolden -v .

// digestResult folds every field of a Result — including the full
// trajectory and the protocol-specific stats — into a SHA-256 digest.
// Floats are rendered in hex ('x') form, so two Results digest equal iff
// they are bit-identical.
func digestResult(res *Result) string {
	h := sha256.New()
	hx := func(v float64) string { return strconv.FormatFloat(v, 'x', -1, 64) }
	fmt.Fprintf(h, "winner=%d pwon=%t full=%t ct=%s eps=%t et=%s e=%s dur=%s to=%t\n",
		res.Winner, res.PluralityWon, res.FullConsensus, hx(res.ConsensusTime),
		res.EpsReached, hx(res.EpsTime), hx(res.Eps), hx(res.Duration), res.TimedOut)
	fmt.Fprintf(h, "counts=%v\n", res.FinalCounts)
	for _, p := range res.Trajectory {
		fmt.Fprintf(h, "p %s %s %s %s %d\n",
			hx(p.Time), hx(p.TopFrac), hx(p.PluralityFrac), hx(p.Bias), p.MaxGen)
	}
	keys := make([]string, 0, len(res.Stats))
	for k := range res.Stats {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(h, "s %s=%s\n", k, hx(res.Stats[k]))
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// goldenTopologies are the three reference interaction graphs of the
// equivalence matrix. GraphSeed is pinned so the random-regular graph is
// identical no matter how the run seed is derived.
var goldenTopologies = []TopologySpec{
	{Kind: TopologyComplete},
	{Kind: TopologyTorus},
	{Kind: TopologyRandomRegular, Degree: 4, GraphSeed: 3},
}

// goldenSpec is the shared instance: large enough that every protocol phase
// (clustering, generations, propagation tails) actually runs, small enough
// that the full 7x3 matrix stays in test-suite budget.
func kernelGoldenSpec(tp TopologySpec) Spec {
	return Spec{N: 600, K: 3, Alpha: 2.5, Seed: 7, Topology: tp}
}

// kernelGolden maps "protocol/topology-label" to the pre-refactor digest.
var kernelGolden = map[string]string{
	"3-majority/complete":                 "992ed5c605d38e2c3ea43e72a08eddb6c5bd00fb1db9f9d79fffecd315c23c83",
	"3-majority/random-regular(d=4)":      "be3712502dde1f907bbb1778da9ab326cc71650775c450f06636a246d76c0c34",
	"3-majority/torus(24x25)":             "e176f59095e4c57b5ae87b8d0d7344af9ddd9bb6ffea9c613ca7a6ec0652cf7d",
	"decentralized/complete":              "d35ff9690395657c28acaf2884b517115ee007e2c553f0c4b528a1f4335a535c",
	"decentralized/random-regular(d=4)":   "1f57065c76ff5482479c58fda5c811d2b53aa7f0d00fdd0af1a8ed69cfb42a91",
	"decentralized/torus(24x25)":          "546a41c949a41ffe5d58898d6180f5e18d0bd8baef347fd78de1ab457f9fce66",
	"leader/complete":                     "55b20a091c113d9512d45c4b46d7c73e313ad626704c2739c306d1cadbd2bffe",
	"leader/random-regular(d=4)":          "39b3c70835b919893817d52efb4f8d31bf0b3e8deca755cf246484dc7accd005",
	"leader/torus(24x25)":                 "e33d507834ab81a0891faf2422d8e0c5825325525ec81372856bd223ab42c8c7",
	"pull-voting/complete":                "8dfd1d68305755fd34a6c9d4ccd3218fb00ff1d48b20923dc27cd1ac22abb206",
	"pull-voting/random-regular(d=4)":     "8a614c6116bce8e2e684bced311a2c86e9a6e5036e0e921b7052b94221cd1d8b",
	"pull-voting/torus(24x25)":            "eeef76668d13374243d0f0d0f26f80f06fa0c05aeafb9480a1f4e5dbdfcc0c0f",
	"sync/complete":                       "ecb267618f110637f3ae0eea726abf505183f7fb4bd6aba586cd77528ebf718e",
	"sync/random-regular(d=4)":            "2669a4783e0a26962b75aba42601c79d96db4f131b737882c29eab47f697229e",
	"sync/torus(24x25)":                   "cd2bb4284733d82657911ef2c78f81c37521872792df8b2283c190edc035357c",
	"two-choices/complete":                "628021f8f8fbf377d9077b8e749662a5ee3236fb41c765f24c9bcc778bb6bf2c",
	"two-choices/random-regular(d=4)":     "4cd9bceb4dcc56be27a74803e91fc09341b4dc59a8424b1506979a761e1fe54c",
	"two-choices/torus(24x25)":            "6eeb839b5f7e372bb56dbc7f24764999ede8edf05a657cb4b330c44bc3ba0762",
	"undecided-state/complete":            "6e9bbbccaf78208929c11942240ecda362a6cdcd493d545f67663e1114bf55cf",
	"undecided-state/random-regular(d=4)": "c825be5835691fd87f901f42518d5ec315030f4acfab1c02fbe76cf7520f89ea",
	"undecided-state/torus(24x25)":        "02eefd76e6c8814d182e6238cdf1323a7163165d0350b939143af785f64c0462",
}

// TestSnapshotRoundtrip pins the checkpoint subsystem's core guarantee on
// the same 7×3 matrix the kernel digests cover: for every protocol and
// reference topology, run-to-T and run-to-T/2 → snapshot → encode → decode
// → restore → run-to-T produce bit-identical Results (hex-float digest
// equality), including when the resumed half executes under RunBatchFrom
// with ≥ 2 workers. Because the plain run's digest is itself pinned by
// TestKernelGolden, this transitively anchors resumed trajectories to the
// pre-refactor kernel.
//
// Set PLURALITY_ROUNDTRIP_DIGESTS=<file> to dump the per-cell digests (the
// CI docs job uploads them as an artifact).
func TestSnapshotRoundtrip(t *testing.T) {
	var digests []string
	for _, name := range Protocols() {
		for _, tp := range goldenTopologies {
			spec := kernelGoldenSpec(tp)
			key := fmt.Sprintf("%s/%s", name, tp.ResolvedLabel(spec.N))
			t.Run(key, func(t *testing.T) {
				if testing.Short() && tp.Kind != TopologyComplete {
					t.Skip("sparse-topology roundtrip column skipped in -short mode")
				}
				ctx := context.Background()
				plain, err := Run(ctx, name, spec)
				if err != nil {
					t.Fatalf("Run(%s): %v", key, err)
				}
				want := digestResult(plain)
				if plain.Duration <= 0 {
					t.Fatalf("%s: zero-duration run cannot be checkpointed half way", key)
				}

				// Half run with a halting snapshot at T/2.
				cspec := spec
				cspec.Checkpoint = CheckpointSpec{SnapshotAt: plain.Duration / 2, Halt: true}
				half, err := Run(ctx, name, cspec)
				if err != nil {
					t.Fatalf("Run(%s) with checkpoint: %v", key, err)
				}
				if half.Snapshot == nil {
					t.Fatalf("%s: no snapshot captured at t=%g of %g", key, plain.Duration/2, plain.Duration)
				}
				meta := half.Snapshot.Meta()
				if meta.Protocol != name || meta.FormatVersion != SnapshotFormatVersion {
					t.Fatalf("%s: bad snapshot meta %+v", key, meta)
				}

				// Through the wire format: encode, decode, resume.
				blob, err := half.Snapshot.Encode()
				if err != nil {
					t.Fatal(err)
				}
				sn, err := DecodeSnapshot(blob)
				if err != nil {
					t.Fatalf("%s: decode: %v", key, err)
				}
				res, err := Resume(ctx, sn, nil)
				if err != nil {
					t.Fatalf("%s: resume: %v", key, err)
				}
				if got := digestResult(res); got != want {
					t.Errorf("%s: resumed digest %s != uninterrupted %s", key, got, want)
				}

				// The batch leg: the exact continuation (replication 0) must
				// survive the parallel pool with ≥ 2 workers.
				batch, err := RunBatchFrom(ctx, sn, 2, 2)
				if err != nil {
					t.Fatalf("%s: RunBatchFrom: %v", key, err)
				}
				if got := digestResult(batch[0]); got != want {
					t.Errorf("%s: batch-resumed digest %s != uninterrupted %s", key, got, want)
				}
				digests = append(digests, fmt.Sprintf("%s\t%s", key, want))
			})
		}
	}
	if out := os.Getenv("PLURALITY_ROUNDTRIP_DIGESTS"); out != "" && !t.Failed() {
		sort.Strings(digests)
		body := strings.Join(digests, "\n") + "\n"
		if err := os.WriteFile(out, []byte(body), 0o644); err != nil {
			t.Errorf("writing digest artifact: %v", err)
		}
	}
}

// TestKernelGolden runs every registered protocol on every reference
// topology and compares the Result digest against the pre-refactor record.
func TestKernelGolden(t *testing.T) {
	record := os.Getenv("PLURALITY_GOLDEN_RECORD") != ""
	for _, name := range Protocols() {
		for _, tp := range goldenTopologies {
			spec := kernelGoldenSpec(tp)
			key := fmt.Sprintf("%s/%s", name, tp.ResolvedLabel(spec.N))
			t.Run(key, func(t *testing.T) {
				if testing.Short() && tp.Kind != TopologyComplete && !record {
					// The sparse-graph columns multiply the runtime ~10×
					// (diffusion is slower off the clique); -short keeps the
					// complete-graph column, the full matrix runs in the
					// plain suite.
					t.Skip("sparse-topology golden column skipped in -short mode")
				}
				res, err := Run(context.Background(), name, spec)
				if err != nil {
					t.Fatalf("Run(%s): %v", key, err)
				}
				got := digestResult(res)
				if record {
					fmt.Printf("GOLDEN\t%q: %q,\n", key, got)
					return
				}
				want, ok := kernelGolden[key]
				if !ok {
					t.Fatalf("no golden digest recorded for %s (got %s)", key, got)
				}
				if got != want {
					t.Errorf("kernel digest changed for %s:\n  got  %s\n  want %s\nthe refactored kernel no longer reproduces the closure-kernel run byte-for-byte", key, got, want)
				}
			})
		}
	}
}
