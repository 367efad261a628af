// Command plurality-bench is the repository's benchmark. It runs the
// simulator's workloads from one process, prints every metric by name with
// its unit, checks the output of every operation, and in a separate traced
// pass measures the layers the workloads run through. README.md describes
// the workloads, the metrics and how to compare two commits; run.sh builds
// and runs it from the repository root:
//
//	bash cmd/plurality-bench/run.sh -workload leader-2e4 -seed 1
//	bash cmd/plurality-bench/run.sh -seed 1 -sets 5 -out a.json
//	bash cmd/plurality-bench/run.sh compare a.json b.json
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"syscall"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	args := os.Args[1:]
	if len(args) > 0 && args[0] == "compare" {
		os.Exit(compareMain(args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(benchMain(ctx, args, os.Stdout, os.Stderr))
}

// fileReport is what -out writes and compare reads.
type fileReport struct {
	Host    host                 `json:"host"`
	Seed    uint64               `json:"seed"`
	Seconds float64              `json:"seconds"`
	Traced  bool                 `json:"traced"`
	Sets    []map[string]*report `json:"sets"`
}

// host is the fingerprint of the machine and build that measured.
type host struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GoMaxProcs int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Revision   string `json:"revision"`
	Modified   bool   `json:"modified,omitempty"`
}

func fingerprint() host {
	h := host{CPU: "unknown", NProc: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0),
		Go: runtime.Version(), Revision: "unknown"}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				h.Revision = s.Value
			case "vcs.modified":
				h.Modified = s.Value == "true"
			}
		}
	}
	return h
}

func benchMain(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("plurality-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	names := fs.String("workload", "all", "comma-separated workloads to run, or all")
	seed := fs.Uint64("seed", 1, "seed every input and request arrival is derived from")
	seconds := fs.Float64("seconds", 25, "measurement window of each workload, in seconds")
	traced := fs.Int("trace", 0, "1 runs the traced pass and reports the per-layer metrics instead of the end-to-end ones")
	spans := fs.String("spans", "", "span file of the traced pass (default plurality-bench-spans.json in the temporary directory)")
	sets := fs.Int("sets", 1, "run the whole pass this many times")
	out := fs.String("out", "", "also write the full report, every set and the host fingerprint, as JSON to this file")
	toy := fs.Bool("smoke", false, "run at toy input sizes (for tests)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	ws, err := selectWorkloads(*names)
	switch {
	case err != nil:
	case fs.NArg() > 0:
		err = fmt.Errorf("unexpected argument %q", fs.Arg(0))
	case *traced != 0 && *traced != 1:
		err = fmt.Errorf("-trace must be 0 or 1, got %d", *traced)
	case *sets < 1 || !(*seconds > 0):
		err = fmt.Errorf("need -sets >= 1 and -seconds > 0")
	}
	if err != nil {
		fmt.Fprintln(stderr, "plurality-bench:", err)
		return 2
	}

	e := env{sc: full, seed: *seed, seconds: *seconds, workers: min(maxWorkers, runtime.NumCPU())}
	if *toy {
		e.sc = smoke
	}
	runtime.GOMAXPROCS(e.workers)
	h := fingerprint()
	fmt.Fprintf(stdout, "# host cpu=%q nproc=%d gomaxprocs=%d go=%s revision=%s modified=%v\n",
		h.CPU, h.NProc, h.GoMaxProcs, h.Go, h.Revision, h.Modified)
	fr := fileReport{Host: h, Seed: *seed, Seconds: *seconds, Traced: *traced == 1}
	var tr *tracer
	if fr.Traced {
		tr = newTracer()
	}
	for set := range *sets {
		reports := map[string]*report{}
		record := func(name string, rep *report) {
			rep.FailedFrac = float64(rep.Failed) / float64(max(rep.Attempted, 1))
			printReport(stdout, set, name, rep)
			reports[name] = rep
		}
		if fr.Traced {
			rep, err := tracedPass(ctx, e, ws, tr, stdout)
			if err != nil {
				fmt.Fprintln(stderr, "plurality-bench: traced pass:", err)
				return 1
			}
			record("traced", rep)
		} else {
			for _, w := range ws {
				rep, err := w.measure(ctx, e)
				if err != nil {
					fmt.Fprintf(stderr, "plurality-bench: %s: %v\n", w.name, err)
					return 1
				}
				record(w.name, rep)
			}
		}
		fr.Sets = append(fr.Sets, reports)
	}
	if tr != nil {
		path := *spans
		if path == "" {
			path = filepath.Join(os.TempDir(), "plurality-bench-spans.json")
		}
		if err := tr.write(path); err != nil {
			fmt.Fprintln(stderr, "plurality-bench:", err)
			return 1
		}
		fmt.Fprintf(stdout, "# %d spans written to %s; self time by span:\n", len(tr.spans), path)
		printSelfTimes(stdout, tr.spans)
	}
	if *out != "" {
		b, err := json.MarshalIndent(fr, "", "  ")
		if err == nil {
			err = os.WriteFile(*out, append(b, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(stderr, "plurality-bench: writing -out:", err)
			return 1
		}
	}
	line := summarize(fr.Sets)
	b, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(stderr, "plurality-bench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	if !line.Correct {
		return 1
	}
	return 0
}

func selectWorkloads(names string) ([]workload, error) {
	if names == "all" {
		return workloads, nil
	}
	var ws []workload
	for _, name := range strings.Split(names, ",") {
		i := slices.IndexFunc(workloads, func(w workload) bool { return w.name == name })
		if i < 0 {
			known := make([]string, len(workloads))
			for j, w := range workloads {
				known[j] = w.name
			}
			return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(known, ", "))
		}
		ws = append(ws, workloads[i])
	}
	return ws, nil
}

// printReport writes one line per metric, "workload metric value unit",
// then the operation counts, the digest and every failure.
func printReport(w io.Writer, set int, name string, r *report) {
	for _, m := range r.Metrics {
		note := ""
		if m.Note != "" {
			note = "  # " + m.Note
		}
		fmt.Fprintf(w, "%s %s %.6g %s%s\n", name, m.Name, m.Value, m.Unit, note)
	}
	fmt.Fprintf(w, "%s attempted %d count\n%s failed_frac %g ratio\n", name, r.Attempted, name, r.FailedFrac)
	if r.Digest != "" {
		fmt.Fprintf(w, "%s result_digest %s\n", name, r.Digest)
	}
	for _, f := range r.Failures {
		fmt.Fprintf(w, "%s FAILED (set %d) %s\n", name, set+1, f)
	}
}

// lastLine is the final line of standard output.
type lastLine struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]valueUnit `json:"metrics"`
}

type valueUnit struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summarize folds all sets into the final line: operation counts add up,
// and each metric is its median over the sets. Metric names are bare when
// one workload ran and "workload/metric" otherwise.
func summarize(sets []map[string]*report) lastLine {
	line := lastLine{Metrics: map[string]valueUnit{}}
	values := map[string][]float64{}
	for _, reports := range sets {
		for name, r := range reports {
			line.Attempted += r.Attempted
			line.Failed += r.Failed
			for _, m := range r.Metrics {
				key := m.Name
				if len(reports) > 1 {
					key = name + "/" + m.Name
				}
				values[key] = append(values[key], m.Value)
				line.Metrics[key] = valueUnit{Unit: m.Unit}
			}
		}
	}
	for key, vs := range values {
		line.Metrics[key] = valueUnit{Value: median(vs), Unit: line.Metrics[key].Unit}
	}
	line.Correct = line.Failed == 0 && line.Attempted > 0
	return line
}
