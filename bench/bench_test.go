package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// declared is the part of BENCHMARK.json the program must agree with.
type declared struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit string
		Bound      float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func loadDeclared(t *testing.T) declared {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(raw, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestDeclarationMatchesProgram: BENCHMARK.json and the program's metric
// tables name the same workloads and metrics, with the same units, once.
func TestDeclarationMatchesProgram(t *testing.T) {
	d := loadDeclared(t)
	if len(d.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the program has %d", len(d.Workloads), len(workloadNames))
	}
	for i, w := range d.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d: declared %q, program %q", i, w.Name, workloadNames[i])
		}
	}
	seen := map[string]bool{}
	check := func(kind string, i int, name, unit string, def metricDef) {
		if name != def.name || unit != def.unit {
			t.Errorf("%s metric %d: declared %s [%s], program %s [%s]", kind, i, name, unit, def.name, def.unit)
		}
		if !nameRE.MatchString(name) {
			t.Errorf("metric name %q is outside [A-Za-z0-9_.-]", name)
		}
		if seen[name] {
			t.Errorf("metric %q declared twice", name)
		}
		seen[name] = true
	}
	if len(d.EndToEnd) != len(endToEnd) || len(d.PerLayer) != len(perLayer) {
		t.Fatalf("declared %d end-to-end and %d per-layer metrics, program has %d and %d",
			len(d.EndToEnd), len(d.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, m := range d.EndToEnd {
		check("end-to-end", i, m.Name, m.Unit, endToEnd[i])
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for i, m := range d.PerLayer {
		check("per-layer", i, m.Name, m.Unit, perLayer[i])
	}
}

// exactCounts are the per-layer metrics that must repeat exactly for a seed.
var exactCounts = []string{"bayeslsh.candidates", "bayeslsh.pruned", "bayeslsh.cache_hits",
	"bayeslsh.hashes_compared", "bayeslsh.pairs_emitted", "bayeslsh.cached_pairs", "bayeslsh.index_rebuilds"}

// TestSmoke runs all four workloads, untraced and traced, at a tenth of the
// calibrated size against in-process handlers: every declared metric is
// emitted, nothing fails any correctness check, exact counts repeat, and
// the trace file is well formed.
func TestSmoke(t *testing.T) {
	for _, w := range workloadNames {
		t.Run(w, func(t *testing.T) {
			t.Parallel() // the four share nothing but the process; halves the wall time
			cfg := runConfig{workload: w, seed: 5, seconds: 0.1, scale: 0.1, inProcess: true, outDir: t.TempDir()}
			expect := func(out *outcome, defs []metricDef) {
				t.Helper()
				if out.failed != 0 || out.attempted == 0 {
					t.Errorf("attempted %d, failed %d: %v", out.attempted, out.failed, out.errs)
				}
				if len(out.metrics) != len(defs) {
					t.Errorf("emitted %d metrics, declared %d", len(out.metrics), len(defs))
				}
				for _, d := range defs {
					if _, ok := out.metrics[d.name]; !ok {
						t.Errorf("metric %s not emitted", d.name)
					}
				}
			}
			out, err := run(context.Background(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			expect(out, endToEnd)
			for _, d := range endToEnd {
				if out.metrics[d.name] <= 0 {
					t.Errorf("end-to-end metric %s = %v, want > 0", d.name, out.metrics[d.name])
				}
			}

			cfg.trace = true
			first, err := run(context.Background(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			expect(first, perLayer)
			second, err := run(context.Background(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, name := range exactCounts {
				if first.metrics[name] != second.metrics[name] {
					t.Errorf("%s: %v then %v on the same seed", name, first.metrics[name], second.metrics[name])
				}
			}
			if first.metrics["bayeslsh.candidates"] == 0 {
				t.Error("the traced pass evaluated no candidates")
			}

			raw, err := os.ReadFile(filepath.Join(cfg.outDir, "trace-"+w+".json"))
			if err != nil {
				t.Fatal(err)
			}
			var trace struct{ Spans []span }
			if err := json.Unmarshal(raw, &trace); err != nil {
				t.Fatalf("trace file: %v", err)
			}
			ids := map[int]bool{}
			layers := map[string]bool{}
			for _, s := range trace.Spans {
				ids[s.ID] = true
				layers[s.Layer] = true
				if s.EndNS < s.StartNS {
					t.Errorf("span %d ends before it starts", s.ID)
				}
			}
			for _, s := range trace.Spans {
				if s.Parent != 0 && !ids[s.Parent] {
					t.Errorf("span %d: parent %d is not in the trace", s.ID, s.Parent)
				}
			}
			for _, l := range append(append([]string(nil), layerOrder...), "lsh", "graph", "blob") {
				if !layers[l] {
					t.Errorf("no span at layer %s", l)
				}
			}
		})
	}
}
