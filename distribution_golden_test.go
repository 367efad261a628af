package plurality

import (
	"bufio"
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"plurality/internal/stats"
)

// Distribution goldens pin what the engines compute in law, not in bits.
// Digest goldens (TestKernelGolden and its kin) must be re-recorded
// whenever an RNG stream changes on purpose; these must not. For each spec
// below, testdata holds every fixed seed's consensus time, ε-time and
// plurality outcome as recorded from the engines before the last stream
// change. The test reruns the same seeds and compares the two samples:
// times by the two-sample Kolmogorov–Smirnov test, plurality win counts by
// Fisher's exact test. While a stream is unchanged the samples are equal
// and every p-value is 1; after a stream change they are independent draws
// from what should be one law.
//
// The design was fixed before the first recording: R = 40 seeds
// (1001–1040), and a family-wise significance of 0.01, Bonferroni-split
// over the three comparisons of every spec. A failure must be investigated;
// it is never fixed by changing the seeds or re-recording. Re-record only
// when an engine's law is meant to change. Only the ε column of the
// leader/crash rows was re-recorded, at EngineEpoch 3, when ε-convergence
// began to count survivors only; it had counted the crashed nodes' stale
// opinions and was never reached. Their consensus times and wins are still
// the first recording's. To re-record:
//
//	PLURALITY_DISTRIBUTION_RECORD=1 go test -run TestDistributionGolden .
const (
	distributionReps      = 40
	distributionFirstSeed = 1001
	distributionFamilyFWE = 0.01
	distributionFile      = "distribution_goldens.tsv"
)

// distributionCases covers both asynchronous engines on the complete
// graph, the leader engine on a sparse graph and under crashes, and the
// synchronous protocol as a round-based control. The sparse cell's degree
// is high enough that most runs reach full consensus; at degree 8 the
// leader engine stalls short of it in most runs, and MaxTime bounds the
// cost of a stalled run.
var distributionCases = []struct {
	name, protocol string
	spec           Spec
}{
	{"leader/complete", "leader", Spec{N: 4000, K: 3, Alpha: 2}},
	{"decentralized/complete", "decentralized", Spec{N: 2000, K: 3, Alpha: 2}},
	{"leader/random-regular(d=32)", "leader", Spec{N: 2000, K: 3, Alpha: 2, MaxTime: 400,
		Topology: TopologySpec{Kind: TopologyRandomRegular, Degree: 32, GraphSeed: 5}}},
	{"leader/crash(f=0.2)", "leader", Spec{N: 2000, K: 3, Alpha: 2,
		Adversary: AdversarySpec{Kind: AdversaryCrash, Fraction: 0.2}}},
	{"sync/complete", "sync", Spec{N: 4000, K: 3, Alpha: 2}},
}

// distributionRow is one seed's outcome. A time the run never reached is
// +Inf, so the KS comparison also sees a change in how often it is
// reached.
type distributionRow struct {
	consensus, eps float64
	won            bool
}

func distributionOutcome(res *Result) distributionRow {
	row := distributionRow{consensus: math.Inf(1), eps: math.Inf(1), won: res.PluralityWon}
	if res.FullConsensus {
		row.consensus = res.ConsensusTime
	}
	if res.EpsReached {
		row.eps = res.EpsTime
	}
	return row
}

func TestDistributionGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("distribution goldens run 200 full simulations; skipped in -short mode")
	}
	path := filepath.Join("testdata", distributionFile)
	record := os.Getenv("PLURALITY_DISTRIBUTION_RECORD") != ""
	var golden map[string][]distributionRow
	if !record {
		var err error
		if golden, err = readDistributionGoldens(path); err != nil {
			t.Fatal(err)
		}
	}
	alpha := distributionFamilyFWE / float64(3*len(distributionCases))
	var out strings.Builder
	for _, c := range distributionCases {
		t.Run(c.name, func(t *testing.T) {
			got := make([]distributionRow, distributionReps)
			for i := range got {
				spec := c.spec
				spec.Seed = uint64(distributionFirstSeed + i)
				res, err := Run(context.Background(), c.protocol, spec)
				if err != nil {
					t.Fatalf("seed %d: %v", spec.Seed, err)
				}
				got[i] = distributionOutcome(res)
				fmt.Fprintf(&out, "%s\t%d\t%s\t%s\t%t\n", c.name, spec.Seed,
					strconv.FormatFloat(got[i].consensus, 'g', -1, 64),
					strconv.FormatFloat(got[i].eps, 'g', -1, 64), got[i].won)
			}
			if record {
				return
			}
			want, ok := golden[c.name]
			if !ok || len(want) != distributionReps {
				t.Fatalf("%s has %d golden rows, want %d", path, len(want), distributionReps)
			}
			compareDistributions(t, want, got, alpha)
		})
	}
	if record && !t.Failed() {
		if err := os.WriteFile(path, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// compareDistributions runs the spec's three comparisons at level alpha.
func compareDistributions(t *testing.T, want, got []distributionRow, alpha float64) {
	t.Helper()
	for _, m := range []struct {
		name string
		f    func(distributionRow) float64
	}{
		{"consensus time", func(r distributionRow) float64 { return r.consensus }},
		{"ε-time", func(r distributionRow) float64 { return r.eps }},
	} {
		a, b := make([]float64, len(want)), make([]float64, len(got))
		for i, r := range want {
			a[i] = m.f(r)
		}
		for i, r := range got {
			b[i] = m.f(r)
		}
		d, p := stats.KSTwoSample(a, b)
		t.Logf("%s: golden mean %.4g over %d reached, current %.4g over %d, KS D=%.3f p=%.3g",
			m.name, finiteMean(a), finiteCount(a), finiteMean(b), finiteCount(b), d, p)
		if p < alpha {
			t.Errorf("%s distribution moved: KS D=%.3f p=%.3g < %.3g", m.name, d, p, alpha)
		}
	}
	wins := func(rows []distributionRow) (k int) {
		for _, r := range rows {
			if r.won {
				k++
			}
		}
		return k
	}
	kw, kg := wins(want), wins(got)
	p := stats.FisherExact(kw, len(want), kg, len(got))
	t.Logf("plurality won %d/%d golden, %d/%d current, Fisher p=%.3g", kw, len(want), kg, len(got), p)
	if p < alpha {
		t.Errorf("plurality win rate moved: %d/%d golden, %d/%d current, Fisher p=%.3g < %.3g",
			kw, len(want), kg, len(got), p, alpha)
	}
}

func finiteCount(xs []float64) (n int) {
	for _, x := range xs {
		if !math.IsInf(x, 1) {
			n++
		}
	}
	return n
}

func finiteMean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		if !math.IsInf(x, 1) {
			s += x
		}
	}
	return s / float64(finiteCount(xs))
}

// readDistributionGoldens parses the recorded table: one line per
// (spec, seed) with the consensus time, ε-time and win flag.
func readDistributionGoldens(path string) (map[string][]distributionRow, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	golden := map[string][]distributionRow{}
	sc := bufio.NewScanner(f)
	for line := 1; sc.Scan(); line++ {
		fields := strings.Split(sc.Text(), "\t")
		if len(fields) != 5 {
			return nil, fmt.Errorf("%s:%d: %d fields, want 5", path, line, len(fields))
		}
		var row distributionRow
		var errs [3]error
		row.consensus, errs[0] = strconv.ParseFloat(fields[2], 64)
		row.eps, errs[1] = strconv.ParseFloat(fields[3], 64)
		row.won, errs[2] = strconv.ParseBool(fields[4])
		for _, err := range errs {
			if err != nil {
				return nil, fmt.Errorf("%s:%d: %w", path, line, err)
			}
		}
		golden[fields[0]] = append(golden[fields[0]], row)
	}
	return golden, sc.Err()
}
