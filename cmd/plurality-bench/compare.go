package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"maps"
	"math"
	"os"
	"slices"
)

// bounds is the part of BENCHMARK.json compare applies.
type bounds struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// Verdicts of compare.
const (
	improved   = "improved"
	regressed  = "regressed"
	unresolved = "unresolved"
	same       = "same"
)

// setupFloor is the absolute floor of setup_s's bound, in seconds: medians
// closer than this are the same, whatever their ratio. Some set-ups take
// tens of milliseconds, where a share of the median is within timer and
// cache noise.
const setupFloor = 0.05

// verdict compares the samples b of a change against the samples a of its
// parent, pairing them by set. Medians closer than floor (in the metric's
// unit) are the same. Otherwise the change improved the metric when it
// wins at least nine tenths of the pairs (ties count for neither) and the
// medians differ by more than a's interquartile range; it regressed when
// its median is worse than a's by more than bound (a share of a's median);
// otherwise the comparison is unresolved when either side's relative
// spread exceeds bound, and the same when neither does.
func verdict(a, b []float64, lowerIsBetter bool, bound, floor float64) string {
	better := func(x, y float64) bool { return x < y == lowerIsBetter && x != y }
	ma, mb := median(a), median(b)
	if math.Abs(mb-ma) < floor {
		return same
	}
	wins, pairs := 0, min(len(a), len(b))
	for i := range pairs {
		if better(b[i], a[i]) {
			wins++
		}
	}
	q1, q3 := quartiles(a)
	limit := ma * (1 + bound)
	if !lowerIsBetter {
		limit = ma * (1 - bound)
	}
	switch {
	case pairs > 0 && 10*wins >= 9*pairs && better(mb, ma) && math.Abs(mb-ma) > q3-q1:
		return improved
	case better(limit, mb):
		return regressed
	case relIQR(a) > bound || relIQR(b) > bound:
		return unresolved
	}
	return same
}

// compareMain implements `plurality-bench compare A.json B.json...`: each
// B report (written with -out) is compared with A, the parent, metric by
// metric under the bounds of BENCHMARK.json. It exits 1 when any metric
// regressed.
func compareMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("plurality-bench compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	benchPath := fs.String("benchmark", "BENCHMARK.json", "benchmark declaration whose end-to-end bounds apply")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() < 2 {
		fmt.Fprintln(stderr, "usage: plurality-bench compare [-benchmark BENCHMARK.json] A.json B.json...")
		return 2
	}
	var bd bounds
	if err := readJSON(*benchPath, &bd); err != nil {
		fmt.Fprintln(stderr, "plurality-bench compare:", err)
		return 2
	}
	a, err := loadSamples(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(stderr, "plurality-bench compare:", err)
		return 2
	}
	code := 0
	for _, path := range fs.Args()[1:] {
		b, err := loadSamples(path)
		if err != nil {
			fmt.Fprintln(stderr, "plurality-bench compare:", err)
			return 2
		}
		fmt.Fprintf(stdout, "# A=%s B=%s\n%-18s %-13s %-42s %-42s %s\n", fs.Arg(0), path,
			"workload", "metric", "A median [q1 q3]", "B median [q1 q3]", "verdict")
		for _, w := range slices.Sorted(maps.Keys(a)) {
			first := true
			for _, m := range bd.EndToEnd {
				av, bv := a[w][m.Name], b[w][m.Name]
				if len(av) == 0 || len(bv) == 0 {
					continue
				}
				floor := 0.0
				if m.Name == "setup_s" {
					floor = setupFloor
				}
				v := verdict(av, bv, m.Better == "lower", m.Bound, floor)
				if v == regressed {
					code = 1
				}
				name := w
				if !first {
					name = ""
				}
				first = false
				fmt.Fprintf(stdout, "%-18s %-13s %-42s %-42s %s\n", name, m.Name, describe(av), describe(bv), v)
			}
		}
	}
	return code
}

func describe(xs []float64) string {
	q1, q3 := quartiles(xs)
	return fmt.Sprintf("%.5g [%.5g %.5g] n=%d", median(xs), q1, q3, len(xs))
}

// loadSamples reads a -out report as workload → metric → one value per set.
func loadSamples(path string) (map[string]map[string][]float64, error) {
	var fr fileReport
	if err := readJSON(path, &fr); err != nil {
		return nil, err
	}
	out := map[string]map[string][]float64{}
	for _, set := range fr.Sets {
		for w, r := range set {
			if out[w] == nil {
				out[w] = map[string][]float64{}
			}
			for _, m := range r.Metrics {
				out[w][m.Name] = append(out[w][m.Name], m.Value)
			}
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no sets", path)
	}
	return out, nil
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}
