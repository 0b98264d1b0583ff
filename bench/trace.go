package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"plasmahd/internal/server"
)

// The traced pass. The harness may not edit the program, so each layer is
// measured from outside: the same scripted operations are run against the
// live daemon (layer "client"), against an in-process server.Handler with
// no network ("server"), against shadow core.Session values ("core"),
// against shadow bayeslsh.Cache values ("bayeslsh"), and the leaf packages
// are called directly on the same rows ("lsh", "vec", "graph", "blob",
// "ring", "metrics"). The engine is deterministic byte for byte, so every
// replay does the same work, and a layer's self time is its own span minus
// the span one layer down. Spans of one scripted operation share an
// operation id across replays; a span's parent is the span of the same
// operation one layer up.

// layerOrder lists the replay layers from the outside in.
var layerOrder = []string{"client", "server", "core", "bayeslsh"}

// span is one timed call at one layer boundary.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // 0: none (a client span, or no replay one layer up ran this operation)
	Op      string `json:"op"`     // operation id, shared by the spans of one scripted request
	Layer   string `json:"layer"`
	Name    string `json:"name"` // request kind
	Class   string `json:"class,omitempty"`
	StartNS int64  `json:"start_ns"` // since the trace began
	EndNS   int64  `json:"end_ns"`
}

// spanLog keeps spans in memory until the run ends.
type spanLog struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	last  map[string]int // layer + operation id -> span id, for parent links
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now(), last: make(map[string]int)} }

func (s *spanLog) add(layer string, unit, idx int, o *op, start time.Time, d time.Duration) {
	s.record(layer, "u"+strconv.Itoa(unit)+".o"+strconv.Itoa(idx), o.kind.String(), o.class, start, d)
}

// record appends a span. The parent is the latest span of the same
// operation at the closest outer layer that has one.
func (s *spanLog) record(layer, opID, name, class string, start time.Time, d time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sp := span{ID: len(s.spans) + 1, Op: opID, Layer: layer, Name: name, Class: class,
		StartNS: start.Sub(s.t0).Nanoseconds(), EndNS: start.Add(d).Sub(s.t0).Nanoseconds()}
	for i, l := range layerOrder {
		if l != layer {
			continue
		}
		for j := i - 1; j >= 0 && sp.Parent == 0; j-- {
			sp.Parent = s.last[layerOrder[j]+" "+opID]
		}
	}
	if sp.Parent == 0 && !slices.Contains(layerOrder, layer) {
		// Leaf-package spans hang under the innermost replay of the operation.
		for j := len(layerOrder) - 1; j >= 0 && sp.Parent == 0; j-- {
			sp.Parent = s.last[layerOrder[j]+" "+opID]
		}
	}
	s.last[layer+" "+opID] = sp.ID
	s.spans = append(s.spans, sp)
}

// write stores the trace as one JSON document.
func (s *spanLog) write(path string, header map[string]any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	header["spans"] = s.spans
	enc := json.NewEncoder(w)
	if err := enc.Encode(header); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// classMean is the mean latency of a class at one layer, in seconds; zero
// when the layer has no such operation.
func classMean(r *recorder, cls string) float64 {
	xs := r.lat[cls]
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

// timedClasses are the latency classes the attribution walks.
var timedClasses = []string{clsCreate, clsFirst, clsProbe, clsCurve, clsCuesCold, clsRead, clsAppend,
	clsSnapshot, clsRestore, clsSpill, clsRevive}

// tracedPass measures the per-layer metrics.
func tracedPass(ctx context.Context, e *env, client *recorder, out *outcome) error {
	spans := newSpanLog()
	m := out.metrics
	m["bench.gen_s"] = e.genS
	half := e.cfg.seconds / 5 // each half of the client phase; the inner replays take the rest

	// Layer "client": the live daemon, first with span recording off, then
	// on; the difference between the two halves is the tracing overhead.
	before, err := scrapeAll(e.nodes)
	if err != nil {
		return err
	}
	plain := newRecorder()
	cpu0, t0 := cpuSeconds(), time.Now()
	if _, _, err := measure(ctx, e, half, plain, nil); err != nil {
		return err
	}
	client.spans = spans
	if _, _, err := measure(ctx, e, half, client, nil); err != nil {
		return err
	}
	m["bench.loadgen_cpu_share"] = (cpuSeconds() - cpu0) / (time.Since(t0).Seconds() * float64(runtime.NumCPU()))
	client.spans = nil
	after, err := scrapeAll(e.nodes)
	if err != nil {
		return err
	}
	client.failed += plain.failed
	client.errs = append(client.errs, plain.errs...)
	client.attempted += plain.attempted
	if client.failed > 0 {
		return nil
	}
	m["bench.trace_overhead_pct"] = 100 * (median(client.units) - median(plain.units)) / median(plain.units)
	for name, key := range map[string]string{
		"server.evictions":    "plasmad_sessions_evicted_total",
		"server.spills":       "plasmad_sessions_spilled_total",
		"server.revives":      "plasmad_sessions_restored_total",
		"server.proxied":      "plasmad_cluster_proxied_total",
		"server.coalesced":    "plasmad_probes_coalesced_total",
		"server.http_5xx":     `plasmad_http_requests_total{code="5xx"}`,
		"server.rate_limited": "plasmad_rate_limited_total",
	} {
		m[name] = after[key] - before[key]
	}
	if m["server.http_5xx"] > 0 || m["server.rate_limited"] > 0 {
		client.fail("daemon reported %v 5xx answers and %v rate-limited requests; both must be 0",
			m["server.http_5xx"], m["server.rate_limited"])
	}

	// The inner layers replay the same scripts, a fixed number of units each
	// so that the counts below repeat exactly for a seed.
	layers := map[string]*recorder{"client": client}
	k, err := newKernels(e, spans)
	if err != nil {
		return err
	}
	defer k.close()
	for _, layer := range layerOrder[1:] {
		rec := newRecorder()
		rec.spans = spans
		layers[layer] = rec
		if err := k.replay(ctx, layer, rec); err != nil {
			return err
		}
		if rec.failed > 0 {
			client.fail("replay at layer %s failed: %v", layer, rec.errs)
			return nil
		}
	}
	if err := k.measure(m, layers); err != nil {
		return err
	}
	attribute(m, layers, k)
	out.samples = append(out.samples, "mean seconds per operation, by latency class and layer (replays of the same script; leaf packages called directly):",
		fmt.Sprintf("%-9s %5s %10s %10s %10s %10s %9s %9s %9s", "class", "n", "client", "server", "core", "bayeslsh", "lsh", "graph", "blob"))
	for _, cls := range timedClasses {
		if n := len(client.lat[cls]); n > 0 {
			out.samples = append(out.samples, fmt.Sprintf("%-9s %5d %10.6f %10.6f %10.6f %10.6f %9.6f %9.6f %9.6f", cls, n,
				classMean(client, cls), classMean(layers["server"], cls), max(classMean(layers["core"], cls), k.inner[cls][0]),
				max(classMean(layers["bayeslsh"], cls), k.inner[cls][1]), k.leaf[cls]["lsh"], k.leaf[cls]["graph"], k.leaf[cls]["blob"]))
		}
	}

	header := map[string]any{
		"workload": e.cfg.workload, "seed": e.cfg.seed, "layers": append(append([]string(nil), layerOrder...), "lsh", "graph", "blob"),
		"note": "spans with one op id are the same scripted request replayed at each layer; parent = the span one layer up; self time = duration minus the child layer's duration (replays run at different times, so intervals do not nest)",
	}
	return spans.write(filepath.Join(e.cfg.outDir, "trace-"+e.cfg.workload+".json"), header)
}

// attribute splits the client-observed time of the workload over layer self
// times. For every latency class, a layer's self time is its mean span
// minus the mean span one layer down (clamped at zero: replays are separate
// runs); leaf packages take what was measured by calling them directly.
// Shares weight each class by how often the client phase issued it.
func attribute(m map[string]float64, layers map[string]*recorder, k *kernels) {
	client := layers["client"]
	self := map[string]float64{}
	var total float64
	for _, cls := range timedClasses {
		n := float64(len(client.lat[cls]))
		if n == 0 {
			continue
		}
		h, s, c, b := classMean(client, cls), classMean(layers["server"], cls), classMean(layers["core"], cls), classMean(layers["bayeslsh"], cls)
		if in, ok := k.inner[cls]; ok {
			c, b = in[0], in[1]
		}
		leaf := k.leaf[cls] // seconds per op, by leaf package
		total += n * h
		self["net"] += n * max(0, h-s)
		self["server"] += n * max(0, s-c-leaf["blob"])
		self["core"] += n * max(0, c-b-leaf["graph"])
		self["bayeslsh"] += n * max(0, b-leaf["lsh"])
		for _, pkg := range []string{"lsh", "graph", "blob"} {
			self[pkg] += n * leaf[pkg]
		}
	}
	var attributed float64
	for _, layer := range []string{"net", "server", "core", "bayeslsh", "lsh", "graph", "blob"} {
		m["share."+layer+"_pct"] = 100 * self[layer] / total
		attributed += self[layer]
	}
	// vec (exact verification) runs inside bayeslsh.Search and cannot be
	// separated from outside the program: its kernel cost is reported as
	// vec.similarity_ns and its share stays inside share.bayeslsh_pct.
	m["share.attributed_pct"] = 100 * attributed / total

	sv, co, ba := layers["server"], layers["core"], layers["bayeslsh"]
	firstAnswer := classMean(client, clsCreate) + classMean(client, clsFirst)
	m["share.first_answer_setup_pct"] = 100 * (max(0, classMean(sv, clsCreate)-classMean(co, clsCreate)) + classMean(ba, clsCreate)) / firstAnswer

	// Self times per route class, named as the issue names them.
	ms := func(a, b *recorder, cls string) float64 { return 1e3 * max(0, classMean(a, cls)-classMean(b, cls)) }
	m["server.create_self_ms"] = ms(sv, co, clsCreate)
	m["server.probe_self_us"] = 1e3 * ms(sv, co, clsProbe)
	m["server.read_self_us"] = 1e3 * ms(sv, co, clsRead)
	m["server.curve_self_us"] = 1e3 * ms(sv, co, clsCurve)
	m["server.append_self_ms"] = ms(sv, co, clsAppend)
	m["server.snapshot_self_ms"] = ms(sv, co, clsSnapshot)
	m["server.restore_self_ms"] = ms(sv, co, clsRestore)
	m["server.spill_ms"] = 1e3 * k.spillS
	m["server.revive_self_ms"] = 1e3 * max(0, classMean(sv, clsRevive)-k.leaf[clsRevive]["blob"]-k.inner[clsRevive][0])
	m["net.read_overhead_us"] = 1e6 * (median(client.lat[clsRead]) - median(sv.lat[clsRead]))
	m["core.probe_self_ms"] = ms(co, ba, clsProbe)
	m["core.snapshot_self_ms"] = ms(co, ba, clsSnapshot)
	m["core.restore_self_ms"] = ms(co, ba, clsRestore)
	m["core.append_self_ms"] = ms(co, ba, clsAppend)
	m["core.cueset_cold_ms"] = 1e3 * classMean(co, clsCuesCold)
	m["bayeslsh.newcache_s"] = classMean(ba, clsCreate)
	m["bayeslsh.cold_probe_s"] = classMean(ba, clsFirst)
	m["bayeslsh.warm_probe_s"] = classMean(ba, clsProbe)
}

// scrapeAll sums the counters of every node's /metrics, keyed by family
// name; plasmad_http_requests_total is additionally summed per status class
// under `plasmad_http_requests_total{code="5xx"}`-style keys.
func scrapeAll(nodes []*node) (map[string]float64, error) {
	total := make(map[string]float64)
	for _, nd := range nodes {
		resp, err := http.Get(nd.url + "/metrics")
		if err != nil {
			return nil, fmt.Errorf("scraping node %s: %w", nd.name, err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, fmt.Errorf("scraping node %s: %w", nd.name, err)
		}
		for _, line := range bytes.Split(body, []byte("\n")) {
			if len(line) == 0 || line[0] == '#' {
				continue
			}
			series, val, ok := strings.Cut(string(line), " ")
			v, err := strconv.ParseFloat(val, 64)
			if !ok || err != nil {
				continue
			}
			family, labels, _ := strings.Cut(series, "{")
			total[family] += v
			if family == "plasmad_http_requests_total" {
				if i := strings.Index(labels, `code="`); i >= 0 {
					total[family+`{code="`+labels[i+6:i+9]+`"}`] += v
				}
			}
		}
	}
	return total, nil
}

// inProcessServer builds the "server" layer: plasmad's handler with the
// topology's capacity and a blob dir, called without any network.
func inProcessServer(capacity int, stateDir string) (*server.Server, *httpTarget) {
	srv := server.New(server.Config{Capacity: capacity, StateDir: stateDir})
	t := newHTTPTarget(&http.Client{Transport: handlerTransport{srv.Handler()}}, "http://in-process")
	return srv, t
}
