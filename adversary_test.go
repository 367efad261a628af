package plurality

import (
	"context"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
	"testing"
)

// This file pins the adversary subsystem's public contract: spec validation,
// golden digests for adversarial runs (the honest digests are pinned by
// TestKernelGolden and must not move when an adversary is merely *available*),
// worker-count invariance, and the checkpoint→resume acceptance criterion —
// an interrupted adversarial run finishes byte-identically to an
// uninterrupted one.

// TestAdversarySpecValidation table-drives AdversarySpec through
// Spec.validate's domains.
func TestAdversarySpecValidation(t *testing.T) {
	cases := []struct {
		name    string
		adv     AdversarySpec
		wantErr string // substring; "" means valid
	}{
		{"zero value", AdversarySpec{}, ""},
		{"crash defaults", AdversarySpec{Kind: AdversaryCrash}, ""},
		{"crash churn", AdversarySpec{Kind: AdversaryCrash, Fraction: 0.3, Rate: 2}, ""},
		{"crash deferred", AdversarySpec{Kind: AdversaryCrash, At: 5}, ""},
		{"delay", AdversarySpec{Kind: AdversaryDelay, Fraction: 0.5, Rate: 3}, ""},
		{"drop", AdversarySpec{Kind: AdversaryDrop, Fraction: 1}, ""},
		{"byzantine pinned seed", AdversarySpec{Kind: AdversaryByzantine, Fraction: 0.1, Seed: 99}, ""},
		{"unknown kind", AdversarySpec{Kind: "meteor"}, "unknown adversary kind"},
		{"kind needs lower case", AdversarySpec{Kind: "Crash"}, "unknown adversary kind"},
		{"negative fraction", AdversarySpec{Kind: AdversaryDrop, Fraction: -0.1}, "Fraction"},
		{"fraction above one", AdversarySpec{Kind: AdversaryDrop, Fraction: 1.5}, "Fraction"},
		{"NaN fraction", AdversarySpec{Kind: AdversaryDrop, Fraction: math.NaN()}, "Fraction"},
		{"crash everyone", AdversarySpec{Kind: AdversaryCrash, Fraction: 1}, "no survivors"},
		{"negative rate", AdversarySpec{Kind: AdversaryDelay, Rate: -1}, "Rate"},
		{"infinite rate", AdversarySpec{Kind: AdversaryCrash, Rate: math.Inf(1)}, "Rate"},
		{"negative at", AdversarySpec{Kind: AdversaryCrash, At: -2}, "At"},
		{"NaN at", AdversarySpec{Kind: AdversaryCrash, At: math.NaN()}, "At"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// leader accepts every kind, so only validation can reject here.
			spec := Spec{N: 100, K: 2, Alpha: 2, Seed: 1, Adversary: tc.adv}
			_, err := Run(context.Background(), "leader", spec)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("valid spec rejected: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("got %v, want error containing %q", err, tc.wantErr)
			}
		})
	}
}

// TestAdversaryLabel pins the compact rendering used by sweep tables and the
// CLI, so table output stays stable.
func TestAdversaryLabel(t *testing.T) {
	cases := []struct {
		adv  AdversarySpec
		want string
	}{
		{AdversarySpec{}, "none"},
		{AdversarySpec{Kind: AdversaryCrash}, "crash(f=0.1)"},
		{AdversarySpec{Kind: AdversaryCrash, Fraction: 0.3, Rate: 2}, "crash(f=0.3,r=2)"},
		{AdversarySpec{Kind: AdversaryDelay, Fraction: 0.5, Rate: 3}, "delay(f=0.5,x3)"},
		{AdversarySpec{Kind: AdversaryDrop, Fraction: 0.25}, "drop(f=0.25)"},
		{AdversarySpec{Kind: AdversaryByzantine, Fraction: 0.1}, "byzantine(f=0.1)"},
	}
	for _, tc := range cases {
		if got := tc.adv.Label(); got != tc.want {
			t.Errorf("Label(%+v) = %q, want %q", tc.adv, got, tc.want)
		}
	}
}

// adversaryGoldenMatrix is the protocol × fault-model grid the adversarial
// digests pin. Delay needs message latency, so only the asynchronous
// protocols carry it.
func adversaryGoldenMatrix() []struct {
	protocol string
	adv      AdversarySpec
} {
	crash := AdversarySpec{Kind: AdversaryCrash, Fraction: 0.2, Rate: 1, At: 2}
	oneShot := AdversarySpec{Kind: AdversaryCrash, Fraction: 0.2, At: 2}
	drop := AdversarySpec{Kind: AdversaryDrop, Fraction: 0.3}
	byz := AdversarySpec{Kind: AdversaryByzantine, Fraction: 0.15}
	delay := AdversarySpec{Kind: AdversaryDelay, Fraction: 0.5, Rate: 2}
	var out []struct {
		protocol string
		adv      AdversarySpec
	}
	for _, p := range []string{"leader", "decentralized", "sync", "3-majority"} {
		kinds := []AdversarySpec{crash, oneShot, drop, byz}
		if p == "leader" || p == "decentralized" {
			kinds = append(kinds, delay)
		}
		for _, a := range kinds {
			out = append(out, struct {
				protocol string
				adv      AdversarySpec
			}{p, a})
		}
	}
	return out
}

func adversaryGoldenSpec(adv AdversarySpec) Spec {
	return Spec{N: 400, K: 3, Alpha: 2, Seed: 11, Adversary: adv}
}

// adversaryGolden maps "protocol/label" to the digest recorded when the
// subsystem landed, and for the asynchronous engines and churn schedules
// re-recorded at EngineEpoch 2 (superposed clock, ziggurat exponential).
// The crash rows were re-recorded at EngineEpoch 3, when every engine
// began to record and report the survivors' counts only.
// Any change to adversary draw order, victim selection or engine
// arithmetic under faults shows up here. Re-record with:
//
//	PLURALITY_GOLDEN_RECORD=1 go test -run TestAdversaryGolden -v .
var adversaryGolden = map[string]string{
	"3-majority/byzantine(f=0.15)":    "b629ee7d5e23a884d573179db02870113219077cde33e8bfbeffa6ae488f8597",
	"3-majority/crash(f=0.2)":         "f95a087b88a3205344d907a4f420646a35eec4f60999d4b1cd8f66678dae848f",
	"3-majority/crash(f=0.2,r=1)":     "27291b99b1050c4d0afb0a7a35cd874f3e5af479f4cd3a91209ca56d4cbc09d6",
	"3-majority/drop(f=0.3)":          "2254253292e3586ca390c00cb506c48e80f230f55d6fd0cc864f3f13808092a4",
	"decentralized/byzantine(f=0.15)": "42dfb59a4a61d3775ccfdbdca34224c4e3159db5bde27b3e4a78ccb3c0866e0c",
	"decentralized/crash(f=0.2)":      "0749f195d31a69c73ed2b4bac3177eef6bbcaef6f2b2fcf533367c5e2fcefc7d",
	"decentralized/crash(f=0.2,r=1)":  "8ead9e78b258331c60e5bc8e7670bdde52406cdaf244ae32f6b6590b78d60e7e",
	"decentralized/delay(f=0.5,x2)":   "71a689bd68717e254f2a5fb7cf3e5912caed364d390f61f0d83ab69e9975dfd8",
	"decentralized/drop(f=0.3)":       "2cb64cf4efab06a9af60500edce8f11802f77496a29fecfca99d5a984ad9010e",
	"leader/byzantine(f=0.15)":        "99b7d84ea562b75dc7c26598b42b681128536657de291ce5d07bfbd8adf160db",
	"leader/crash(f=0.2)":             "ccea6590da99b2feb40c2791d759f8842aafa776df7f5ce12cf165a04337004f",
	"leader/crash(f=0.2,r=1)":         "9b41749d8f60910b0e7f679afdcb11e55a581335cdadf3130ad68a29cf9a70d7",
	"leader/delay(f=0.5,x2)":          "e1275370333d37a620d2849c51b30cdb77e5ad5defa0980559ce2c680b338c72",
	"leader/drop(f=0.3)":              "31674182992814c15739f11bf730c3b52331879283f02798d3e43583cc14116d",
	"sync/byzantine(f=0.15)":          "3e167fda88ed589bab65006f01ff8a80666028ef8e4926a7d5b879f2426b781b",
	"sync/crash(f=0.2)":               "3302cfa36c0d33b9775cb510ab22d2b538c7ab8ed639a332e2da6de228dc6647",
	"sync/crash(f=0.2,r=1)":           "e6dc6434533858b04715977c5af2cb276fe50c0296a33e0de5831079f012cd30",
	"sync/drop(f=0.3)":                "ab21dc27c3d8c9758f1396f05c781178c2e290ec9d579c966d0fe629c4930131",
}

// TestAdversaryGolden digests every cell of the adversarial matrix against
// the recorded values. Set PLURALITY_ADVERSARY_DIGESTS=<file> to dump the
// per-cell digests (the CI adversary job uploads them as an artifact).
func TestAdversaryGolden(t *testing.T) {
	record := os.Getenv("PLURALITY_GOLDEN_RECORD") != ""
	var digests []string
	for _, cell := range adversaryGoldenMatrix() {
		key := fmt.Sprintf("%s/%s", cell.protocol, cell.adv.Label())
		t.Run(key, func(t *testing.T) {
			res, err := Run(context.Background(), cell.protocol, adversaryGoldenSpec(cell.adv))
			if err != nil {
				t.Fatalf("Run(%s): %v", key, err)
			}
			got := digestResult(res)
			if record {
				fmt.Printf("GOLDEN\t%q: %q,\n", key, got)
				return
			}
			want, ok := adversaryGolden[key]
			if !ok {
				t.Fatalf("no golden digest recorded for %s (got %s)", key, got)
			}
			if got != want {
				t.Errorf("adversarial digest changed for %s:\n  got  %s\n  want %s", key, got, want)
			}
			digests = append(digests, fmt.Sprintf("%s\t%s", key, got))
		})
	}
	if out := os.Getenv("PLURALITY_ADVERSARY_DIGESTS"); out != "" && !t.Failed() && !record {
		sort.Strings(digests)
		body := strings.Join(digests, "\n") + "\n"
		if err := os.WriteFile(out, []byte(body), 0o644); err != nil {
			t.Errorf("writing digest artifact: %v", err)
		}
	}
}

// TestConsensusCountsSurvivors checks that every engine records, stops and
// reports on one population, the survivors: a run stops only in full
// consensus or at its horizon, and one that reports full consensus ends on
// a point where the dominant opinion holds every survivor, with final
// counts that give the winner exactly the n − crashes + recoveries nodes
// still up. It covers the adversarial matrix and the honest kernel matrix
// (every node survives there).
func TestConsensusCountsSurvivors(t *testing.T) {
	type cell struct {
		key  string
		name string
		spec Spec
	}
	var cells []cell
	for _, c := range adversaryGoldenMatrix() {
		cells = append(cells, cell{c.protocol + "/" + c.adv.Label(), c.protocol, adversaryGoldenSpec(c.adv)})
	}
	for _, name := range Protocols() {
		for _, tp := range goldenTopologies {
			spec := kernelGoldenSpec(tp)
			cells = append(cells, cell{name + "/" + tp.ResolvedLabel(spec.N), name, spec})
		}
	}
	for _, c := range cells {
		t.Run(c.key, func(t *testing.T) {
			res, err := Run(context.Background(), c.name, c.spec)
			if err != nil {
				t.Fatal(err)
			}
			survivors := c.spec.N - int(res.Stats["adv_crashes"]) + int(res.Stats["adv_recoveries"])
			total := 0
			for _, n := range res.FinalCounts {
				total += n
			}
			if total > survivors {
				t.Errorf("final counts %v hold %d nodes, but only %d survive", res.FinalCounts, total, survivors)
			}
			if !res.FullConsensus {
				if !res.TimedOut {
					t.Errorf("stopped at t=%v with neither full consensus nor a timeout (final counts %v)",
						res.Duration, res.FinalCounts)
				}
				return
			}
			if last := res.Trajectory[len(res.Trajectory)-1]; last.TopFrac != 1 {
				t.Errorf("full consensus, but the last point at t=%v has TopFrac %v", last.Time, last.TopFrac)
			}
			if got := res.FinalCounts[res.Winner]; got != survivors {
				t.Errorf("full consensus on %d, but it holds %d of %d survivors (final counts %v)",
					res.Winner, got, survivors, res.FinalCounts)
			}
		})
	}
}

// TestAdversaryDeterminism pins that adversarial replications are
// worker-count invariant: the same (spec, seed, adversary) triple digests
// identically whether the batch runs sequentially or on a parallel pool.
func TestAdversaryDeterminism(t *testing.T) {
	ctx := context.Background()
	for _, cell := range []struct {
		protocol string
		adv      AdversarySpec
	}{
		{"leader", AdversarySpec{Kind: AdversaryCrash, Fraction: 0.3, Rate: 2}},
		{"3-majority", AdversarySpec{Kind: AdversaryDrop, Fraction: 0.4}},
		{"decentralized", AdversarySpec{Kind: AdversaryByzantine, Fraction: 0.1}},
	} {
		key := fmt.Sprintf("%s/%s", cell.protocol, cell.adv.Label())
		t.Run(key, func(t *testing.T) {
			spec := Spec{N: 300, K: 3, Alpha: 2, Seed: 5, Adversary: cell.adv}
			seq, err := RunBatch(ctx, cell.protocol, spec, 3, 1)
			if err != nil {
				t.Fatal(err)
			}
			par, err := RunBatch(ctx, cell.protocol, spec, 3, 4)
			if err != nil {
				t.Fatal(err)
			}
			for i := range seq {
				if digestResult(seq[i]) != digestResult(par[i]) {
					t.Errorf("replication %d differs between 1 and 4 workers", i)
				}
			}
			// Replications face distinct adversarial schedules (the adversary
			// seed derives from the per-replication run seed).
			if digestResult(seq[0]) == digestResult(seq[1]) {
				t.Error("replications 0 and 1 digest equal; adversary seed not derived per replication")
			}
		})
	}
}

// TestAdversaryCheckpointResume pins the acceptance criterion for
// adversarial snapshots: checkpoint → encode → decode → resume of a run
// under every fault model reproduces the uninterrupted run bit-exactly —
// the adversary's generator, victim schedule and parked messages all travel
// in the versioned blob. The parallel leg re-checks through RunBatchFrom.
func TestAdversaryCheckpointResume(t *testing.T) {
	ctx := context.Background()
	cells := []struct {
		protocol string
		adv      AdversarySpec
	}{
		{"leader", AdversarySpec{Kind: AdversaryCrash, Fraction: 0.3, Rate: 2}},
		{"leader", AdversarySpec{Kind: AdversaryDelay, Fraction: 0.5, Rate: 2}},
		{"leader", AdversarySpec{Kind: AdversaryDrop, Fraction: 0.3}},
		{"leader", AdversarySpec{Kind: AdversaryByzantine, Fraction: 0.1}},
		{"decentralized", AdversarySpec{Kind: AdversaryCrash, Fraction: 0.2, At: 2}},
		{"decentralized", AdversarySpec{Kind: AdversaryDelay, Fraction: 0.5}},
		{"sync", AdversarySpec{Kind: AdversaryCrash, Fraction: 0.2, At: 2}},
		{"sync", AdversarySpec{Kind: AdversaryByzantine, Fraction: 0.15}},
		{"3-majority", AdversarySpec{Kind: AdversaryCrash, Fraction: 0.2, Rate: 0.5}},
		{"3-majority", AdversarySpec{Kind: AdversaryDrop, Fraction: 0.4}},
	}
	for _, cell := range cells {
		key := fmt.Sprintf("%s/%s", cell.protocol, cell.adv.Label())
		t.Run(key, func(t *testing.T) {
			spec := snapshotSpec()
			spec.Adversary = cell.adv
			sn, want := captureSnapshot(t, cell.protocol, spec)
			blob, err := sn.Encode()
			if err != nil {
				t.Fatal(err)
			}
			decoded, err := DecodeSnapshot(blob)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			res, err := Resume(ctx, decoded, nil)
			if err != nil {
				t.Fatalf("resume: %v", err)
			}
			if got := digestResult(res); got != want {
				t.Errorf("resumed adversarial digest %s != uninterrupted %s", got, want)
			}
			if testing.Short() {
				return // the parallel leg re-runs the tail once more
			}
			batch, err := RunBatchFrom(ctx, decoded, 2, 2)
			if err != nil {
				t.Fatalf("RunBatchFrom: %v", err)
			}
			if got := digestResult(batch[0]); got != want {
				t.Errorf("batch-resumed adversarial digest %s != uninterrupted %s", got, want)
			}
		})
	}
}

// TestAdversaryRoundBasedRejectsDelay pins that protocols without message
// latency reject the delay adversary with a diagnostic instead of silently
// ignoring it.
func TestAdversaryRoundBasedRejectsDelay(t *testing.T) {
	for _, protocol := range []string{"sync", "3-majority", "two-choices", "pull-voting", "undecided-state"} {
		spec := Spec{N: 200, K: 2, Alpha: 2, Seed: 1,
			Adversary: AdversarySpec{Kind: AdversaryDelay}}
		_, err := Run(context.Background(), protocol, spec)
		if err == nil || !strings.Contains(err.Error(), "delay") {
			t.Errorf("%s with delay adversary: got %v, want a delay-rejection error", protocol, err)
		}
	}
}

// TestAdversaryStats pins the counter plumbing: adversarial runs surface
// adv_* counters in Stats, honest runs stay free of them (so honest Results
// digest identically to pre-adversary builds).
func TestAdversaryStats(t *testing.T) {
	ctx := context.Background()
	honest, err := Run(ctx, "leader", Spec{N: 300, K: 3, Alpha: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for k := range honest.Stats {
		if strings.HasPrefix(k, "adv_") {
			t.Errorf("honest run carries adversary counter %q", k)
		}
	}
	faulty, err := Run(ctx, "leader", Spec{N: 300, K: 3, Alpha: 2, Seed: 3,
		Adversary: AdversarySpec{Kind: AdversaryCrash, Fraction: 0.3, Rate: 2}})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"adv_crashes", "adv_recoveries", "adv_drops", "adv_delayed", "adv_lies"} {
		if _, ok := faulty.Stats[k]; !ok {
			t.Errorf("adversarial run missing counter %q", k)
		}
	}
	if faulty.Stats["adv_crashes"] == 0 {
		t.Error("churn adversary recorded no crashes")
	}
}

// TestSweepAdversaryAxis pins the new factor: one honest and one faulty
// column, labelled through the table, worker-count invariant.
func TestSweepAdversaryAxis(t *testing.T) {
	ctx := context.Background()
	cfg := SweepConfig{
		Protocol: "3-majority",
		Base:     Spec{Seed: 9},
		Ns:       []int{200},
		Ks:       []int{2},
		Alphas:   []float64{2},
		Adversaries: []AdversarySpec{
			{},
			{Kind: AdversaryDrop, Fraction: 0.4},
		},
		Reps: 2,
	}
	res, err := Sweep(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 2 {
		t.Fatalf("sweep produced %d cells, want 2", len(res.Cells))
	}
	if res.Cells[0].Adversary != "none" || res.Cells[1].Adversary != "drop(f=0.4)" {
		t.Errorf("cell adversary labels %q, %q", res.Cells[0].Adversary, res.Cells[1].Adversary)
	}
	if !strings.Contains(res.Render(), "drop(f=0.4)") {
		t.Error("rendered table is missing the adversary column")
	}

	cfg.Workers = 3
	par, err := Sweep(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.Cells {
		for key, s := range res.Cells[i].Metrics {
			if p := par.Cells[i].Metrics[key]; p.Mean != s.Mean {
				t.Errorf("cell %d metric %s differs across worker counts: %v vs %v", i, key, s.Mean, p.Mean)
			}
		}
	}
}
