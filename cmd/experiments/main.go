// Command experiments regenerates the paper's figures and validates its
// claims (the E1–E16 index that `experiments -list` prints). Each experiment
// prints an aligned ASCII table and optionally writes CSV files.
//
// Usage:
//
//	experiments -list
//	experiments fig1 fig2
//	experiments -reps 10 -csv results/ all
//	experiments -quick all
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"plurality/internal/experiments"
)

func main() {
	var (
		list   = flag.Bool("list", false, "list available experiments")
		reps   = flag.Int("reps", 5, "replications per grid point")
		quick  = flag.Bool("quick", false, "shrink grids for a fast smoke run")
		seed   = flag.Uint64("seed", 0, "seed offset for all replications")
		csvDir = flag.String("csv", "", "directory to write CSV files into")
	)
	flag.Parse()

	if *list {
		for _, s := range experiments.All() {
			fmt.Printf("%-6s %-12s %s\n", s.ID, s.Name, s.Paper)
		}
		return
	}

	names := flag.Args()
	if len(names) == 0 {
		fmt.Fprintln(os.Stderr, "experiments: no experiment named; try -list or 'all'")
		os.Exit(1)
	}
	var specs []experiments.Spec
	if len(names) == 1 && names[0] == "all" {
		specs = experiments.All()
	} else {
		for _, name := range names {
			s, err := experiments.Lookup(name)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			specs = append(specs, s)
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	opts := experiments.Opts{Reps: *reps, Quick: *quick, Seed: *seed, Ctx: ctx}
	for _, s := range specs {
		if ctx.Err() != nil {
			fmt.Fprintln(os.Stderr, "experiments: interrupted; last table is partial")
			os.Exit(1)
		}
		start := time.Now()
		table := s.Run(opts)
		fmt.Printf("%s [%s: %s] (%.1fs)\n", table.Render(), s.ID, s.Paper,
			time.Since(start).Seconds())
		if *csvDir != "" {
			if err := os.MkdirAll(*csvDir, 0o755); err != nil {
				fmt.Fprintln(os.Stderr, "experiments:", err)
				os.Exit(1)
			}
			path := filepath.Join(*csvDir, s.Name+".csv")
			if err := os.WriteFile(path, []byte(table.CSV()), 0o644); err != nil {
				fmt.Fprintln(os.Stderr, "experiments:", err)
				os.Exit(1)
			}
			fmt.Printf("  wrote %s\n\n", path)
		}
	}
	if ctx.Err() != nil {
		fmt.Fprintln(os.Stderr, "experiments: interrupted; last table is partial")
		os.Exit(1)
	}
}
