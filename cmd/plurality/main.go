// Command plurality runs a single plurality-consensus instance and prints
// its trajectory and outcome. Every protocol in the registry is available
// by name; Ctrl-C cancels a running instance cleanly.
//
// Usage:
//
//	plurality -list
//	plurality -protocol sync -n 100000 -k 8 -alpha 1.5 -seed 1
//	plurality -protocol leader -n 5000 -k 4 -alpha 2 -latency-mean 2
//	plurality -protocol decentralized -n 5000 -k 4 -alpha 2
//	plurality -protocol 3-majority -n 10000 -k 8 -alpha 2 -sequential
//	plurality -protocol sync -n 1000000 -k 8 -alpha 1.5 -stream
//	plurality -protocol 3-majority -n 1024 -k 2 -alpha 4 -topology torus
//	plurality -protocol sync -n 10000 -k 4 -topology random-regular -degree 8
//	plurality -protocol sync -n 10000 -k 4 -topology erdos-renyi -p 0.002 -json
//	plurality -protocol leader -n 100000 -checkpoint run.snap -checkpoint-at 8 -checkpoint-halt
//	plurality -resume run.snap
//	plurality -resume run.snap -perturb 3 -max-time 500
//	plurality -bench -bench-protocol sync -n 1000000 -k 4 -alpha 2
//	plurality -bench -bench-protocol 3-majority -n 100000 -topology torus
//	plurality -protocol leader -n 10000 -adversary crash -adversary-fraction 0.2 -adversary-rate 2
//	plurality -protocol decentralized -n 5000 -adversary byzantine -adversary-fraction 0.1
//
// Protocols: everything listed by plurality.Protocols() — sync, leader,
// decentralized, and the four baseline dynamics. Topologies: everything
// listed by plurality.Topologies(); the default complete graph is the
// paper's model. Adversaries: plurality.Adversaries() — crash/churn, message
// delay/drop, Byzantine opinion-lying; the paper's theorems cover only the
// honest (empty) setting.
//
// Checkpointing: -checkpoint-at T captures the full simulator state the
// first time virtual time (or the round counter) reaches T; -checkpoint
// FILE writes it as a binary blob plus a FILE.json metadata sidecar, and
// -checkpoint-halt stops the run right after. -resume FILE continues a
// blob bit-exactly (same Result an uninterrupted run would produce);
// -perturb L branches an independent deterministic future off the shared
// prefix instead, and -max-time extends the horizon of a timed-out run.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"plurality"
	"plurality/internal/prof"
)

// flushProfiles finalizes any active profiles; exit() routes every
// post-setup termination through it so an error or losing run still leaves
// parseable profile files (os.Exit skips defers). It is replaced once
// profiling starts.
var flushProfiles = func() {}

// exit flushes profiles and terminates with code.
func exit(code int) {
	flushProfiles()
	os.Exit(code)
}

func main() {
	var (
		protocol    = flag.String("protocol", "sync", "protocol name; see -list")
		list        = flag.Bool("list", false, "list registered protocols and exit")
		n           = flag.Int("n", 10000, "number of nodes")
		k           = flag.Int("k", 4, "number of opinions")
		alpha       = flag.Float64("alpha", 2, "initial multiplicative bias")
		seed        = flag.Uint64("seed", 1, "random seed")
		gamma       = flag.Float64("gamma", 0.5, "generation density threshold (sync)")
		theoretical = flag.Bool("theoretical", false, "use the paper's predefined schedule (sync)")
		latencyKind = flag.String("latency", "exp", "latency kind: exp | const | uniform | erlang")
		latencyMean = flag.Float64("latency-mean", 1, "mean channel latency")
		maxTime     = flag.Float64("max-time", 0, "abort horizon (async protocols)")
		sequential  = flag.Bool("sequential", false, "population-protocol scheduler (baselines)")
		trajectory  = flag.Bool("trajectory", false, "print the full trajectory")
		stream      = flag.Bool("stream", false, "do not accumulate the trajectory (O(1) memory); without -json, print snapshots live")
		quiet       = flag.Bool("q", false, "print only the outcome line")
		jsonOut     = flag.Bool("json", false, "emit the run as one JSON object on stdout (for analysis scripts); with -stream the object omits the trajectory")

		bench         = flag.Bool("bench", false, "benchmark mode: run with O(1) recording and emit a throughput report as JSON on stdout (events/sec for the asynchronous protocols, node-updates/sec for round-based ones — see work_unit — plus allocs and peak heap)")
		benchProtocol = flag.String("bench-protocol", "", "with -bench: protocol to benchmark, overriding -protocol; every registered protocol (sync, decentralized, the baselines) is benchmarkable")
		benchReps     = flag.Int("bench-reps", 1, "with -bench: replications to run through the parallel batch layer")
		benchWorkers  = flag.Int("bench-workers", 0, "with -bench: worker bound for the batch layer; 0 means GOMAXPROCS")
		cpuProfile    = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile    = flag.String("memprofile", "", "write an allocation profile to this file on exit")

		checkpointPath = flag.String("checkpoint", "", "write a snapshot blob to this file (plus a .json metadata sidecar); requires -checkpoint-at")
		checkpointAt   = flag.Float64("checkpoint-at", 0, "virtual time (or round) to capture the snapshot at")
		checkpointHalt = flag.Bool("checkpoint-halt", false, "stop the run right after capturing the snapshot")
		resumePath     = flag.String("resume", "", "resume a run from a snapshot blob written by -checkpoint (protocol and parameters come from the blob)")
		perturb        = flag.Uint64("perturb", 0, "with -resume: fold this divergence label into every RNG stream (0 = bit-exact continuation)")

		advKind = flag.String("adversary", "", "fault model: crash | delay | drop | byzantine; empty runs honestly (the paper's model)")
		advFrac = flag.Float64("adversary-fraction", 0, "affected share (nodes for crash/byzantine, messages for delay/drop); 0 means 0.1")
		advRate = flag.Float64("adversary-rate", 0, "crash churn rate (0 = one-shot) or delay latency multiplier (0 = 1)")
		advAt   = flag.Float64("adversary-at", 0, "virtual time (or round) the crash adversary first acts")
		advSeed = flag.Uint64("adversary-seed", 0, "pin the adversary's private generator; 0 derives it from -seed")

		topology  = flag.String("topology", "complete", "interaction graph: complete | ring | torus | random-regular | erdos-renyi")
		width     = flag.Int("width", 0, "ring half-width (neighbors v±1..v±width); 0 means 1")
		rows      = flag.Int("rows", 0, "torus rows; 0 infers from n and -cols (near-square when both are 0)")
		cols      = flag.Int("cols", 0, "torus cols; 0 infers from n and -rows (near-square when both are 0)")
		degree    = flag.Int("degree", 0, "random-regular degree; 0 means 4")
		p         = flag.Float64("p", 0, "erdos-renyi edge probability; 0 means 2·ln(n)/n")
		graphSeed = flag.Uint64("graph-seed", 0, "pin the random-graph construction seed; 0 derives it from -seed")
	)
	flag.Parse()

	if *list {
		for _, name := range plurality.Protocols() {
			info, err := plurality.Info(name)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			unit := "rounds"
			if info.Async {
				unit = "virtual time"
			}
			graphs := "clique-only"
			if info.TopologyAware {
				graphs = "any topology"
			}
			fmt.Printf("%-16s %-12s %-12s %-13s %s\n", info.Name, info.Family, unit, graphs, info.Description)
		}
		fmt.Printf("\ntopologies: %v\n", plurality.Topologies())
		fmt.Printf("adversaries: %v\n", plurality.Adversaries())
		return
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	flushProfiles = prof.Start(*cpuProfile, *memProfile)
	defer flushProfiles()

	spec := plurality.Spec{
		N: *n, K: *k, Alpha: *alpha, Seed: *seed, MaxTime: *maxTime,
		Latency:  plurality.LatencySpec{Kind: *latencyKind, Mean: *latencyMean},
		Sync:     plurality.SyncOptions{Gamma: *gamma, TheoreticalSchedule: *theoretical},
		Baseline: plurality.BaselineOptions{Sequential: *sequential},
		Topology: plurality.TopologySpec{
			Kind: *topology, Width: *width, Rows: *rows, Cols: *cols,
			Degree: *degree, P: *p, GraphSeed: *graphSeed,
		},
		Adversary: plurality.AdversarySpec{
			Kind: *advKind, Fraction: *advFrac, Rate: *advRate, At: *advAt, Seed: *advSeed,
		},
	}
	// -stream always keeps recording memory O(1); the live snapshot printer
	// only makes sense for the human-readable output, not inside -json.
	if *stream {
		spec.DiscardTrajectory = true
		if !*jsonOut {
			spec.Observer = plurality.ObserverFunc(func(p plurality.TrajectoryPoint) {
				fmt.Printf("%10.2f  %8.4f  %8.4f  %10.3g  %6d\n",
					p.Time, p.TopFrac, p.PluralityFrac, p.Bias, p.MaxGen)
			})
			fmt.Printf("%10s  %8s  %8s  %10s  %6s\n", "time", "top", "plural", "bias", "gen")
		}
	}

	if *checkpointAt != 0 {
		// Negative values reach validation and fail there with a typed
		// message instead of being silently ignored.
		spec.Checkpoint = plurality.CheckpointSpec{SnapshotAt: *checkpointAt, Halt: *checkpointHalt}
	}
	if *checkpointPath != "" && *checkpointAt <= 0 {
		fmt.Fprintln(os.Stderr, "plurality: -checkpoint requires -checkpoint-at > 0")
		exit(1)
	}
	if *checkpointAt > 0 && *checkpointPath == "" {
		// Without a file the captured snapshot would be dropped on the
		// floor (and -checkpoint-halt would truncate the run for nothing).
		fmt.Fprintln(os.Stderr, "plurality: -checkpoint-at requires -checkpoint FILE to write the snapshot to")
		exit(1)
	}

	// Label the interaction graph a run actually uses (defaults resolved),
	// and the fault model it runs under.
	topoLabel := spec.Topology.ResolvedLabel(*n)
	advLabel := spec.Adversary.Label()

	if *bench {
		name := *protocol
		if *benchProtocol != "" {
			name = *benchProtocol
		}
		var rep *plurality.BenchReport
		var err error
		if *benchReps > 1 {
			rep, err = plurality.BenchBatch(ctx, name, spec, *benchReps, *benchWorkers)
		} else {
			rep, err = plurality.Bench(ctx, name, spec)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			exit(1)
		}
		fmt.Println(rep.JSON())
		return
	}

	var res *plurality.Result
	var err error
	if *resumePath != "" {
		blob, ferr := os.ReadFile(*resumePath)
		if ferr != nil {
			fmt.Fprintln(os.Stderr, ferr)
			exit(1)
		}
		snapshot, derr := plurality.DecodeSnapshot(blob)
		if derr != nil {
			fmt.Fprintln(os.Stderr, derr)
			exit(1)
		}
		meta := snapshot.Meta()
		// The blob fixes the run's identity; reported labels follow it.
		*protocol = meta.Protocol
		*n, *k, *alpha, *seed = meta.Spec.N, meta.Spec.K, meta.Spec.Alpha, meta.Spec.Seed
		topoLabel = meta.Spec.Topology.ResolvedLabel(meta.Spec.N)
		advLabel = meta.Spec.Adversary.Label()
		opts := &plurality.ResumeOptions{
			Observer: spec.Observer,
			Perturb:  *perturb,
			// -stream keeps its O(1)-memory contract on resumed runs too.
			DiscardTrajectory: spec.DiscardTrajectory,
			Checkpoint:        spec.Checkpoint,
		}
		if *maxTime > 0 {
			opts.MaxTime = *maxTime
		}
		fmt.Fprintf(os.Stderr, "resuming %s from t=%g (%s)\n", meta.Protocol, meta.Time, *resumePath)
		res, err = plurality.Resume(ctx, snapshot, opts)
	} else {
		res, err = plurality.Run(ctx, *protocol, spec)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		exit(1)
	}
	if *checkpointPath != "" {
		if res.Snapshot == nil {
			fmt.Fprintf(os.Stderr, "plurality: run ended before -checkpoint-at %g; no snapshot written\n", *checkpointAt)
			exit(1)
		}
		if err := writeSnapshot(res.Snapshot, *checkpointPath); err != nil {
			fmt.Fprintln(os.Stderr, err)
			exit(1)
		}
	}

	if *jsonOut {
		out := struct {
			Protocol  string            `json:"protocol"`
			N         int               `json:"n"`
			K         int               `json:"k"`
			Alpha     float64           `json:"alpha"`
			Seed      uint64            `json:"seed"`
			Topology  string            `json:"topology"`
			Adversary string            `json:"adversary,omitempty"`
			Result    *plurality.Result `json:"result"`
		}{*protocol, *n, *k, *alpha, *seed, topoLabel, "", res}
		if advLabel != "none" {
			out.Adversary = advLabel
		}
		enc := json.NewEncoder(os.Stdout)
		if err := enc.Encode(out); err != nil {
			fmt.Fprintln(os.Stderr, err)
			exit(1)
		}
		if !res.PluralityWon {
			exit(2)
		}
		return
	}

	if !*quiet {
		// The adversary tag appears only on adversarial runs, keeping honest
		// output byte-identical to pre-adversary builds.
		advTag := ""
		if advLabel != "none" {
			advTag = " adversary=" + advLabel
		}
		fmt.Printf("protocol=%s n=%d k=%d alpha=%g seed=%d topology=%s%s\n",
			*protocol, *n, *k, *alpha, *seed, topoLabel, advTag)
		if *trajectory && !*stream {
			fmt.Printf("%10s  %8s  %8s  %10s  %6s\n", "time", "top", "plural", "bias", "gen")
			for _, p := range res.Trajectory {
				fmt.Printf("%10.2f  %8.4f  %8.4f  %10.3g  %6d\n",
					p.Time, p.TopFrac, p.PluralityFrac, p.Bias, p.MaxGen)
			}
		}
		if line := sparkline(res, 60); line != "" {
			fmt.Printf("plurality frac  %s\n", line)
		}
		for key, v := range res.Stats {
			fmt.Printf("stat %-20s %g\n", key, v)
		}
		if res.EpsReached {
			fmt.Printf("ε=%.3g-convergence at t=%.4g\n", res.Eps, res.EpsTime)
		}
	}
	fmt.Println(res)
	if !res.PluralityWon {
		exit(2)
	}
}

// writeSnapshot writes the blob to path and its metadata sidecar to
// path+".json", so runs can be inspected without parsing the binary.
func writeSnapshot(s *plurality.Snapshot, path string) error {
	blob, err := s.Encode()
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		return err
	}
	meta, err := s.MetaJSON()
	if err != nil {
		return err
	}
	if err := os.WriteFile(path+".json", append(meta, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "snapshot: %s (%d bytes) at t=%g, metadata in %s.json\n",
		path, len(blob), s.Meta().Time, path)
	return nil
}

// sparkline renders the PluralityFrac trajectory as a width-character bar
// strip, resampling the recorded points evenly over the run's duration.
func sparkline(res *plurality.Result, width int) string {
	if len(res.Trajectory) == 0 || width <= 0 {
		return ""
	}
	levels := []rune("▁▂▃▄▅▆▇█")
	out := make([]rune, width)
	duration := res.Trajectory[len(res.Trajectory)-1].Time
	j := 0
	for i := 0; i < width; i++ {
		target := duration * float64(i) / float64(width-1)
		for j < len(res.Trajectory)-1 && res.Trajectory[j+1].Time <= target {
			j++
		}
		v := res.Trajectory[j].PluralityFrac
		idx := int(v * float64(len(levels)))
		if idx >= len(levels) {
			idx = len(levels) - 1
		}
		if idx < 0 {
			idx = 0
		}
		out[i] = levels[idx]
	}
	return string(out)
}
