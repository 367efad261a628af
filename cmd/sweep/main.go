// Command sweep runs one protocol across a factor grid and prints a table —
// the generic workhorse behind ad-hoc scaling questions ("how does the
// decentralized protocol's ε-convergence time move with k at n=50000?").
// It is a thin shell over plurality.Sweep; Ctrl-C cancels the grid cleanly.
//
// Usage:
//
//	sweep -protocol sync -n 1000,10000,100000 -k 8 -alpha 2 -reps 5
//	sweep -protocol leader -n 2000 -k 2,4,8,16 -alpha 1.5
//	sweep -protocol 3-majority -n 10000 -k 4 -alpha 2 -csv
//	sweep -protocol 3-majority -n 1024 -k 2 -alpha 4 -topology complete,torus,ring
//	sweep -protocol sync -n 10000 -k 4 -topology random-regular -degree 8
//	sweep -protocol leader -n 10000 -adversaries none,crash,drop -adversary-fraction 0.2
//
// With -ndjson the sweep is emitted as one JSON cell per line instead of a
// table — the same encoding a pluralityd stream uses, byte for byte. With
// -serve-addr the sweep is not run locally at all: it is submitted to a
// running pluralityd, whose NDJSON cell stream is copied to stdout as it
// arrives (cached cells arrive instantly):
//
//	sweep -protocol sync -n 1000,10000 -k 4 -ndjson
//	sweep -serve-addr http://localhost:7600 -protocol sync -n 1000,10000 -k 4
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"

	"plurality"
	"plurality/internal/prof"
	"plurality/internal/server"
)

func main() {
	var (
		protocol = flag.String("protocol", "sync", "protocol name; any entry of plurality.Protocols()")
		ns       = flag.String("n", "10000", "comma-separated node counts")
		ks       = flag.String("k", "4", "comma-separated opinion counts")
		alphas   = flag.String("alpha", "2", "comma-separated initial biases")
		reps     = flag.Int("reps", 5, "replications per grid point")
		workers  = flag.Int("workers", 0, "worker pool bound for the flattened cells-by-reps job list; 0 means GOMAXPROCS, 1 runs sequentially")
		seed     = flag.Uint64("seed", 0, "seed offset")
		latMean  = flag.Float64("latency-mean", 1, "mean channel latency (async)")
		csvOut   = flag.Bool("csv", false, "emit CSV instead of an ASCII table")
		topos    = flag.String("topology", "", "comma-separated topology factor (complete | ring | torus | random-regular | erdos-renyi); empty means the complete graph only")
		width    = flag.Int("width", 0, "ring half-width for the ring topology; 0 means 1")
		degree   = flag.Int("degree", 0, "degree for the random-regular topology; 0 means 4")
		p        = flag.Float64("p", 0, "edge probability for the erdos-renyi topology; 0 means 2·ln(n)/n")
		advs     = flag.String("adversaries", "", "comma-separated adversary factor (none | crash | delay | drop | byzantine); empty means honest runs only")
		advFrac  = flag.Float64("adversary-fraction", 0, "affected share for every adversarial cell; 0 means 0.1")
		advRate  = flag.Float64("adversary-rate", 0, "crash churn rate (0 = one-shot) or delay latency multiplier (0 = 1), applied to every adversarial cell")

		ndjson    = flag.Bool("ndjson", false, "emit one JSON cell per line (the pluralityd stream encoding) instead of a table")
		serveAddr = flag.String("serve-addr", "", "submit the sweep to a running pluralityd at this base URL and stream its NDJSON cells to stdout instead of computing locally")

		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = flag.String("memprofile", "", "write an allocation profile to this file on exit")
	)
	flag.Parse()

	nList, err := parseInts(*ns)
	ok(err)
	kList, err := parseInts(*ks)
	ok(err)
	aList, err := parseFloats(*alphas)
	ok(err)
	tList, err := parseTopologies(*topos, *width, *degree, *p)
	ok(err)
	advList, err := parseAdversaries(*advs, *advFrac, *advRate)
	ok(err)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *serveAddr != "" {
		// Thin-client mode: the server computes (or serves from its cache);
		// this process just relays the NDJSON stream.
		ok(server.StreamSweep(ctx, *serveAddr, server.SweepRequest{
			Protocol: *protocol,
			Base: plurality.Spec{
				Seed:    *seed,
				Latency: plurality.LatencySpec{Mean: *latMean},
			},
			Ns:          nList,
			Ks:          kList,
			Alphas:      aList,
			Topologies:  tList,
			Adversaries: advList,
			Reps:        *reps,
		}, os.Stdout))
		return
	}

	flushProfiles = prof.Start(*cpuProfile, *memProfile)
	defer flushProfiles()

	res, err := plurality.Sweep(ctx, plurality.SweepConfig{
		Protocol: *protocol,
		Base: plurality.Spec{
			Seed:    *seed,
			Latency: plurality.LatencySpec{Mean: *latMean},
		},
		Ns:          nList,
		Ks:          kList,
		Alphas:      aList,
		Topologies:  tList,
		Adversaries: advList,
		Reps:        *reps,
		Workers:     *workers,
	})
	ok(err)
	switch {
	case *ndjson:
		// One cell per line through the encoder the server streams with, so
		// local and served output are interchangeable byte-for-byte.
		for _, c := range res.Cells {
			line, err := server.EncodeCell(c)
			ok(err)
			os.Stdout.Write(line)
			os.Stdout.Write([]byte("\n"))
		}
	case *csvOut:
		fmt.Print(res.CSV())
	default:
		fmt.Print(res.Render())
	}
}

func parseInts(s string) ([]int, error) {
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("sweep: bad integer %q", p)
		}
		out = append(out, v)
	}
	return out, nil
}

// parseTopologies builds the topology axis from a comma-separated kind list;
// the shared width/degree/p knobs apply to every entry of their kind.
func parseTopologies(s string, width, degree int, p float64) ([]plurality.TopologySpec, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	known := map[string]bool{}
	for _, k := range plurality.Topologies() {
		known[k] = true
	}
	var out []plurality.TopologySpec
	for _, part := range strings.Split(s, ",") {
		kind := strings.TrimSpace(part)
		if !known[kind] {
			return nil, fmt.Errorf("sweep: unknown topology %q (have %v)", kind, plurality.Topologies())
		}
		out = append(out, plurality.TopologySpec{
			Kind: kind, Width: width, Degree: degree, P: p,
		})
	}
	return out, nil
}

// parseAdversaries builds the adversary axis from a comma-separated kind
// list; "none" marks an honest cell, and the shared fraction/rate knobs apply
// to every adversarial entry.
func parseAdversaries(s string, frac, rate float64) ([]plurality.AdversarySpec, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	known := map[string]bool{}
	for _, k := range plurality.Adversaries() {
		known[k] = true
	}
	var out []plurality.AdversarySpec
	for _, part := range strings.Split(s, ",") {
		kind := strings.TrimSpace(part)
		if kind == "none" {
			out = append(out, plurality.AdversarySpec{})
			continue
		}
		if !known[kind] {
			return nil, fmt.Errorf("sweep: unknown adversary %q (have none and %v)", kind, plurality.Adversaries())
		}
		out = append(out, plurality.AdversarySpec{Kind: kind, Fraction: frac, Rate: rate})
	}
	return out, nil
}

func parseFloats(s string) ([]float64, error) {
	parts := strings.Split(s, ",")
	out := make([]float64, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, fmt.Errorf("sweep: bad float %q", p)
		}
		out = append(out, v)
	}
	return out, nil
}

// flushProfiles finalizes any active profiles before an error exit; it is
// replaced once profiling starts, so an interrupted sweep still leaves
// parseable profile files.
var flushProfiles = func() {}

func ok(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		flushProfiles()
		os.Exit(1)
	}
}
