package dataset

import (
	"fmt"
	"sort"

	"plasmahd/internal/gen"
	"plasmahd/internal/graph"
	"plasmahd/internal/vec"
)

// Spec is the wire-level description of a dataset source: what to generate
// and at what scale. It is how plasmad clients create sessions by name
// (POST /v1/sessions) without shipping the data itself.
type Spec struct {
	// Kind selects the source family: "table" (dense UCI stand-ins),
	// "corpus" (sparse document/network stand-ins), "toy" (the 50-point d1
	// set of Fig 2.2), or "graph" (a chapter 3 generator's adjacency sets
	// probed under Jaccard, the Orkut-style network reading).
	Kind string `json:"kind"`
	// Name picks the source within the family: a TableNames() entry, a
	// CorpusNames() entry, or a gen.Models() model for graphs. Ignored for
	// "toy".
	Name string `json:"name,omitempty"`
	// Rows caps table/corpus size (0 = source default) and sets the vertex
	// count for graph kinds.
	Rows int `json:"rows,omitempty"`
	// Edges sets the target edge count for graph kinds (0 = 4×Rows).
	Edges int `json:"edges,omitempty"`
	// Seed drives the deterministic generators.
	Seed int64 `json:"seed,omitempty"`
}

// Kinds returns the spec kinds Load understands, in sorted order.
func Kinds() []string { return []string{"corpus", "graph", "table", "toy"} }

// Generation ceilings for graph specs. Specs arrive off the wire only at
// session creation (a session snapshot carries its rows, never a spec), and
// unlike table/corpus — which only shrink below a built-in source size — the
// graph generators scale with Rows/Edges unbounded, so an absurd request
// must fail fast instead of generating gigabytes before any later
// validation runs.
const (
	// MaxGraphRows caps the vertex count of a generated graph dataset.
	MaxGraphRows = 1 << 20
	// MaxGraphEdges caps the target edge count of a generated graph dataset.
	MaxGraphEdges = 1 << 24
)

// graphSize resolves a graph spec's vertex and edge counts, applying the
// same defaults Load does.
func graphSize(spec Spec) (n, m int) {
	n = spec.Rows
	if n <= 0 {
		n = 500
	}
	m = spec.Edges
	if m <= 0 {
		m = 4 * n
	}
	return n, m
}

// Source describes one loadable family for discovery endpoints and CLIs.
type Source struct {
	Kind  string   `json:"kind"`
	Names []string `json:"names"`
}

// Sources enumerates every built-in dataset the registry can load, the
// payload of plasmad's GET /v1/datasets.
func Sources() []Source {
	models := gen.Models()
	names := make([]string, len(models))
	for i, m := range models {
		names[i] = string(m)
	}
	sort.Strings(names)
	return []Source{
		{Kind: "corpus", Names: CorpusNames()},
		{Kind: "graph", Names: names},
		{Kind: "table", Names: TableNames()},
		{Kind: "toy", Names: []string{"d1"}},
	}
}

// Load resolves a spec against the built-in generators and returns the
// dataset ready to probe (rows normalized where the measure requires it).
func Load(spec Spec) (*vec.Dataset, error) {
	switch spec.Kind {
	case "table":
		tab, err := NewTableScaled(spec.Name, spec.Rows, spec.Seed)
		if err != nil {
			return nil, err
		}
		return tab.Dataset(), nil
	case "corpus":
		return NewCorpusScaled(spec.Name, spec.Rows, spec.Seed)
	case "toy":
		return Toy50(spec.Seed).Dataset(), nil
	case "graph":
		model := gen.Model(spec.Name)
		if _, ok := gen.Lookup(model); !ok {
			return nil, fmt.Errorf("dataset: unknown graph model %q (known: %v)", spec.Name, gen.Models())
		}
		n, m := graphSize(spec)
		if n > MaxGraphRows {
			return nil, fmt.Errorf("dataset: graph rows %d exceeds the %d limit", n, MaxGraphRows)
		}
		if m > MaxGraphEdges {
			return nil, fmt.Errorf("dataset: graph edges %d exceeds the %d limit", m, MaxGraphEdges)
		}
		return FromGraph(gen.Generate(model, n, m, spec.Seed), fmt.Sprintf("%s-n%d-m%d", spec.Name, n, m)), nil
	case "":
		return nil, fmt.Errorf("dataset: spec needs a kind (one of %v)", Kinds())
	default:
		return nil, fmt.Errorf("dataset: unknown kind %q (known: %v)", spec.Kind, Kinds())
	}
}

// FromGraph turns a graph into an unweighted Jaccard dataset: row v is
// vertex v's closed neighborhood (self plus neighbors), so structurally
// similar vertices get similar rows — the network-as-dataset reading used
// for the paper's Orkut corpus.
func FromGraph(g *graph.Graph, name string) *vec.Dataset {
	d := &vec.Dataset{Name: name, Dim: g.N(), Measure: vec.JaccardSim}
	for v := 0; v < g.N(); v++ {
		nbrs := g.Neighbors(v)
		idx := make([]int32, 0, len(nbrs)+1)
		idx = append(idx, nbrs...)
		idx = append(idx, int32(v))
		sort.Slice(idx, func(a, b int) bool { return idx[a] < idx[b] })
		d.Rows = append(d.Rows, vec.Sparse{Indices: idx})
	}
	d.NormalizeRows()
	return d
}
