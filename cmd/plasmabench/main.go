// Command plasmabench regenerates the paper's tables and figures.
//
// Usage:
//
//	plasmabench -list
//	plasmabench -exp E2.7            # one experiment at default scale
//	plasmabench -all -scale 200      # everything, capped datasets
//
// Scale caps per-dataset row counts; 0 runs each experiment's default
// reproduction scale (minutes, not hours), set where its registered function
// in internal/experiments loads its data; -list prints the registry. Output
// is plain text: aligned tables for the paper's tables, tables and ASCII
// charts for its figures. It prints experiments; performance is measured by the
// repository's benchmark, `go run ./bench`.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"plasmahd/internal/experiments"
)

func main() {
	var (
		exp     = flag.String("exp", "", "experiment id to run (e.g. E4.9)")
		all     = flag.Bool("all", false, "run every experiment")
		list    = flag.Bool("list", false, "list experiments")
		scale   = flag.Int("scale", 0, "cap dataset sizes (0 = default scale)")
		seed    = flag.Int64("seed", 1, "generator seed")
		workers = flag.Int("workers", 0, "probe-engine worker count (0 = all cores)")
	)
	flag.Parse()
	opt := experiments.Options{Scale: *scale, Seed: *seed, Workers: *workers}

	runOne := func(e experiments.Experiment) time.Duration {
		fmt.Printf("==== %s — %s ====\n", e.ID, e.Paper)
		start := time.Now()
		if err := e.Run(os.Stdout, opt); err != nil {
			fmt.Fprintf(os.Stderr, "%s failed: %v\n", e.ID, err)
			os.Exit(1)
		}
		return time.Since(start)
	}

	switch {
	case *list:
		for _, e := range experiments.All() {
			fmt.Printf("%-6s %s\n", e.ID, e.Paper)
		}
	case *all:
		for _, e := range experiments.All() {
			d := runOne(e)
			fmt.Printf("---- %s done in %v ----\n\n", e.ID, d.Round(time.Millisecond))
		}
	case *exp != "":
		e, err := experiments.ByID(*exp)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		runOne(e)
	default:
		flag.Usage()
		os.Exit(2)
	}
}
