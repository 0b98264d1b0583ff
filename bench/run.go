package main

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"time"
)

// runConfig is one invocation's settings.
type runConfig struct {
	workload  string
	seed      int64
	seconds   float64 // measured phase length
	trace     bool
	scale     float64 // input size multiplier (1 = the calibrated sizes)
	inProcess bool    // serve from in-process handlers instead of plasmad subprocesses (smoke test)
	root      string  // checkout root (holds go.mod and cmd/plasmad)
	outDir    string  // bench/out: the built daemon, state dirs, trace files
}

// Setup is repeated so that setup_s is a median, not one cold sample.
const setupRounds = 3

// outcome is what one pass reports.
type outcome struct {
	metrics   map[string]float64
	samples   []string // one line per latency class: count, median, extremes
	attempted int
	failed    int
	errs      []string
	flags     [][]string // plasmad flags per node, for the header
}

var workloadNames = []string{"explore-dense", "onboard-long", "ingest-stream", "serve-mixed"}

// topologyOf returns the daemons a workload runs against. Every daemon gets
// a state dir and a small capacity so that parking and reviving a session —
// an end-to-end metric of every workload — can happen at all.
func topologyOf(workload, stateDir string) topology {
	topo := topology{nodes: 1, capacity: 2, stateDir: stateDir}
	if workload == "serve-mixed" {
		topo.nodes = mixedNodes
	}
	return topo
}

// newClient returns an HTTP client holding one keep-alive connection per
// node: one benchmark client, one connection.
func newClient() *http.Client {
	return &http.Client{
		Timeout:   120 * time.Second,
		Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true},
	}
}

// env is one booted topology plus the inputs generated for it.
type env struct {
	cfg   runConfig
	nodes []*node
	pool  [][]op     // single-node workloads: session scripts
	mixed *mixedPlan // serve-mixed: resident sessions and visit schedules
	state string     // this boot's state dir
	genS  float64    // seconds spent generating inputs
}

func (e *env) urls() []string {
	urls := make([]string, len(e.nodes))
	for i, nd := range e.nodes {
		urls[i] = nd.url
	}
	return urls
}

func (e *env) close() {
	stopAll(e.nodes)
	os.RemoveAll(e.state)
}

// poolSize is how many distinct datasets a single-node run cycles through.
const poolSize = 4

// setup generates the workload's inputs from the seed, boots the daemons,
// waits for /healthz, and pre-warms: one untimed unit of the workload, so
// the measured phase starts on a daemon whose heap and code paths are warm.
func setup(ctx context.Context, cfg runConfig, bin string, round int) (*env, error) {
	e := &env{cfg: cfg, state: filepath.Join(cfg.outDir, fmt.Sprintf("state-%d-%d", os.Getpid(), round))}
	t0 := time.Now()
	if cfg.workload == "serve-mixed" {
		e.mixed = planMixed(cfg.seed, cfg.scale)
	} else {
		e.pool = sessionPool(cfg.workload, cfg.seed, cfg.scale, poolSize)
	}
	e.genS = time.Since(t0).Seconds()
	nodes, err := boot(ctx, bin, topologyOf(cfg.workload, e.state), cfg.inProcess)
	if err != nil {
		os.RemoveAll(e.state)
		return nil, err
	}
	e.nodes = nodes
	warm := newRecorder()
	if e.mixed != nil {
		e.mixed.install(e, warm)
	} else {
		runScript(newHTTPTarget(newClient(), e.urls()...), "client", -1, e.pool[poolSize-1], warm, nil)
	}
	if warm.failed > 0 {
		e.close()
		return nil, fmt.Errorf("pre-warm failed: %v", warm.errs)
	}
	return e, nil
}

// run executes one pass of the configured workload.
func run(ctx context.Context, cfg runConfig) (*outcome, error) {
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, err
	}
	var bin string
	if !cfg.inProcess {
		var err error
		if bin, err = buildDaemon(cfg.root, cfg.outDir); err != nil {
			return nil, err
		}
	}
	// Set up several times; the last environment is the one measured. The
	// traced pass does not report setup_s and sets up once.
	rounds := setupRounds
	if cfg.trace {
		rounds = 1
	}
	var e *env
	var setupS []float64
	for round := 0; round < rounds; round++ {
		if e != nil {
			e.close()
		}
		t0 := time.Now()
		var err error
		if e, err = setup(ctx, cfg, bin, round); err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	defer e.close()

	out := &outcome{metrics: make(map[string]float64)}
	for _, nd := range e.nodes {
		out.flags = append(out.flags, nd.flags)
	}
	rec := newRecorder()
	var err error
	if cfg.trace {
		err = tracedPass(ctx, e, rec, out)
	} else {
		err = untracedPass(ctx, e, rec, out)
		out.metrics["setup_s"] = median(setupS)
	}
	if err != nil {
		return nil, err
	}
	for _, nd := range e.nodes {
		if err := nd.alive(); err != nil {
			return nil, err
		}
	}
	out.attempted, out.failed, out.errs = rec.attempted, rec.failed, rec.errs
	return out, nil
}

// measure drives the workload for the given number of seconds and returns the
// wall time and completed request count of the measured phase. Units are fixed
// scripts; the phase ends at the first unit boundary past the deadline
// (never mid-unit), and always completes at least minUnits.
func measure(ctx context.Context, e *env, seconds float64, rec *recorder, keep []result) (wall float64, requests int, err error) {
	if e.mixed != nil {
		return e.mixed.drive(ctx, e, seconds, rec)
	}
	const minUnits = 2
	tgt := newHTTPTarget(newClient(), e.urls()...)
	budget := time.Duration(seconds * float64(time.Second))
	start := time.Now()
	for i := 0; ; i++ {
		elapsed := time.Since(start)
		if i >= minUnits && elapsed+elapsed/time.Duration(i)/2 > budget {
			break
		}
		if err := ctx.Err(); err != nil {
			return 0, 0, err
		}
		var k []result
		if i == 0 {
			k = keep
		}
		d := runScript(tgt, "client", i, e.pool[i%len(e.pool)], rec, k)
		rec.units = append(rec.units, d.Seconds())
		if rec.failed > 0 {
			break
		}
	}
	return time.Since(start).Seconds(), tgt.requests, nil
}

// untracedPass measures the end-to-end metrics and then checks answers.
func untracedPass(ctx context.Context, e *env, rec *recorder, out *outcome) error {
	var keep []result
	if e.pool != nil {
		keep = make([]result, len(e.pool[0]))
	}
	wall, requests, err := measure(ctx, e, e.cfg.seconds, rec, keep)
	if err != nil {
		return err
	}
	m := out.metrics
	m["run_s"] = median(rec.units)
	m["requests_per_s"] = float64(requests) / wall
	m["first_answer_s"] = median(rec.firstAnswer)
	m["probe_p50_ms"] = 1e3 * median(rec.lat[clsProbe])
	m["curve_ms"] = 1e3 * median(rec.lat[clsCurve])
	m["cues_cold_ms"] = 1e3 * median(rec.lat[clsCuesCold])
	m["snapshot_s"] = median(rec.lat[clsSnapshot])
	m["restore_s"] = median(rec.lat[clsRestore])
	m["snapshot_bytes_per_pair"] = median(rec.bytesPerPair)
	m["ingest_rows_per_s"] = median(rec.ingestRate)
	m["read_p50_ms"] = 1e3 * median(rec.lat[clsRead])
	m["read_p95_ms"] = 1e3 * quantile(rec.lat[clsRead], 0.95)
	m["revive_ms"] = 1e3 * median(rec.lat[clsRevive])
	if m["peak_rss_mb"], err = peakRSS(e.nodes); err != nil {
		return err
	}
	out.samples = append(out.samples, fmt.Sprintf("units n=%d p50=%.4gs min=%.4gs max=%.4gs wall=%.4gs requests=%d",
		len(rec.units), median(rec.units), quantile(rec.units, 0), quantile(rec.units, 1), wall, requests))
	for _, cls := range timedClasses {
		xs := rec.lat[cls]
		out.samples = append(out.samples, fmt.Sprintf("class %-9s n=%-5d p50=%.4gms min=%.4gms max=%.4gms total=%.4gs",
			cls, len(xs), 1e3*median(xs), 1e3*quantile(xs, 0), 1e3*quantile(xs, 1), sum(xs)))
	}
	return verify(ctx, e, rec, keep)
}

// peakRSS is the largest VmHWM over the daemons.
func peakRSS(nodes []*node) (float64, error) {
	var peak float64
	for _, nd := range nodes {
		mb, err := nd.peakRSSMB()
		if err != nil {
			return 0, fmt.Errorf("reading peak RSS of node %s: %w", nd.name, err)
		}
		peak = max(peak, mb)
	}
	return peak, nil
}

// findRoot walks up from the working directory to the checkout root: the
// directory whose go.mod declares module plasmahd and that holds the daemon.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "plasmad", "main.go")); err == nil {
			if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
				return dir, nil
			}
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no checkout root (go.mod + cmd/plasmad) above the working directory")
		}
		dir = parent
	}
}
