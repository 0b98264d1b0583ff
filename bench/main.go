// Command bench is the repository's benchmark: it generates inputs from a
// seed, boots real plasmad daemons built from ./cmd/plasmad, drives one of
// four workloads over loopback HTTP, checks the answers against shadow
// engine sessions and brute force, and prints every metric by name.
//
//	go run ./bench -workload explore-dense -seed 1 -seconds 20 -trace 0
//
// prints the end-to-end metrics of BENCHMARK.json; -trace 1 runs the traced
// pass and prints the per-layer metrics instead (and writes the spans to
// bench/out/trace-<workload>.json). -aa runs the untraced pass twice on one
// seed and prints both values, their gap and the bound for every metric.
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. See README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"syscall"
)

func main() {
	workload := flag.String("workload", "", "one of "+strings.Join(workloadNames, ", "))
	seed := flag.Int64("seed", 1, "input seed: the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 20, "length of the measured phase")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced pass, per-layer metrics")
	aa := flag.Bool("aa", false, "run the untraced pass twice on the same seed and compare")
	flag.Parse()
	if !slices.Contains(workloadNames, *workload) || *seconds <= 0 || (*trace != 0 && *trace != 1) || flag.NArg() > 0 {
		flag.Usage()
		os.Exit(2)
	}

	// SIGINT/SIGTERM cancel the run; deferred teardown then stops and reaps
	// every daemon before the process exits.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := realMain(ctx, *workload, *seed, *seconds, *trace == 1, *aa)
	stop()
	os.Exit(code)
}

func realMain(ctx context.Context, workload string, seed int64, seconds float64, trace, aa bool) int {
	root, err := findRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	cfg := runConfig{workload: workload, seed: seed, seconds: seconds, trace: trace, scale: 1,
		root: root, outDir: filepath.Join(root, "bench", "out")}
	printHeader(cfg)
	if aa {
		return runAA(ctx, cfg)
	}
	out, err := run(ctx, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	return report(out, defs)
}

// printHeader records what produced the numbers.
func printHeader(cfg runConfig) {
	commit := "unknown (not a git checkout)"
	if out, err := exec.Command("git", "-C", cfg.root, "rev-parse", "--short", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	fmt.Printf("# bench workload=%s seed=%d seconds=%g trace=%t\n", cfg.workload, cfg.seed, cfg.seconds, cfg.trace)
	fmt.Printf("# commit=%s %s nproc=%d GOMAXPROCS=%d clients=%d (closed loop, one connection each)\n",
		commit, runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0), clientsOf(cfg.workload))
}

// clientsOf is the number of closed-loop clients: one analyst for the
// single-node workloads, nproc for serve-mixed.
func clientsOf(workload string) int {
	if workload == "serve-mixed" {
		return mixedClients()
	}
	return 1
}

// report prints every metric by name with its unit, then the result line.
func report(out *outcome, defs []metricDef) int {
	for i, flags := range out.flags {
		fmt.Printf("# plasmad[%d] %s\n", i, strings.Join(flags, " "))
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(defs))
	correct := out.failed == 0
	for _, d := range defs {
		v, ok := out.metrics[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(os.Stderr, "bench: metric %s was not measured\n", d.name)
			correct, v = false, 0
		}
		fmt.Printf("%-34s %14.6g %s\n", d.name, v, d.unit)
		metrics[d.name] = value{v, d.unit}
	}
	for _, line := range out.samples {
		fmt.Println("#", line)
	}
	for _, e := range out.errs {
		fmt.Fprintln(os.Stderr, "bench: FAILED:", e)
	}
	fmt.Printf("# operations attempted=%d failed=%d\n", out.attempted, out.failed)
	line, err := json.Marshal(map[string]any{
		"correct": correct, "attempted": out.attempted, "failed": out.failed, "metrics": metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !correct {
		return 1
	}
	return 0
}

// runAA runs the untraced pass twice on the same seed and prints, per
// metric, both values, the relative gap (positive = second run worse) and
// the bound BENCHMARK.json fixes; it fails if any gap exceeds its bound or
// an operation failed.
func runAA(ctx context.Context, cfg runConfig) int {
	raw, err := os.ReadFile(filepath.Join(cfg.root, "BENCHMARK.json"))
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	var decl struct {
		EndToEnd []struct {
			Name   string  `json:"name"`
			Better string  `json:"better"`
			Bound  float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(raw, &decl); err != nil {
		fmt.Fprintln(os.Stderr, "bench: BENCHMARK.json:", err)
		return 1
	}
	cfg.trace = false
	var runs [2]*outcome
	for i := range runs {
		if runs[i], err = run(ctx, cfg); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	code := 0
	fmt.Printf("%-26s %14s %14s %8s %7s\n", "metric @ "+cfg.workload, "run A", "run B", "gap", "bound")
	for _, d := range decl.EndToEnd {
		a, b := runs[0].metrics[d.Name], runs[1].metrics[d.Name]
		gap := (b - a) / a
		if d.Better == "higher" {
			gap = (a - b) / a
		}
		verdict := ""
		if math.Abs(gap) > d.Bound {
			verdict, code = "  EXCEEDS BOUND", 1
		}
		fmt.Printf("%-26s %14.6g %14.6g %+7.1f%% %6.0f%%%s\n", d.Name, a, b, 100*gap, 100*d.Bound, verdict)
	}
	for i, r := range runs {
		fmt.Printf("# run %c: operations attempted=%d failed=%d\n", 'A'+i, r.attempted, r.failed)
		for _, e := range r.errs {
			fmt.Fprintln(os.Stderr, "bench: FAILED:", e)
		}
		if r.failed > 0 {
			code = 1
		}
	}
	return code
}
