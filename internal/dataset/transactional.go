package dataset

import (
	"fmt"
	"math/rand"
	"sort"
)

// TransSpec describes a transactional stand-in for the FIMI/UCI sets of
// Table 4.4. Density follows the paper's classification (sparse / moderate /
// dense) which governs pattern length and overlap.
type TransSpec struct {
	Name     string
	Trans    int    // number of transactions
	Items    int    // label universe size
	Density  string // "sparse", "moderate", "dense"
	Classes  int    // >0 for datasets the paper classifies on (Fig 4.9)
	Patterns int    // planted pattern pool size
}

// transSpecs covers Table 4.4, scaled to laptop size where the original is
// web-scale (accidents 340K -> 8K, kosarak 990K -> 10K).
var transSpecs = map[string]TransSpec{
	"accidents":  {Name: "accidents", Trans: 8000, Items: 460, Density: "sparse", Patterns: 90},
	"adult":      {Name: "adult", Trans: 8000, Items: 130, Density: "moderate", Classes: 2, Patterns: 60},
	"anneal":     {Name: "anneal", Trans: 898, Items: 70, Density: "moderate", Classes: 5, Patterns: 30},
	"breast":     {Name: "breast", Trans: 699, Items: 45, Density: "dense", Classes: 2, Patterns: 20},
	"mushroom":   {Name: "mushroom", Trans: 8124, Items: 120, Density: "dense", Classes: 2, Patterns: 40},
	"kosarak":    {Name: "kosarak", Trans: 10000, Items: 2000, Density: "sparse", Patterns: 200},
	"iris":       {Name: "iris", Trans: 150, Items: 20, Density: "dense", Classes: 3, Patterns: 9},
	"pageblocks": {Name: "pageblocks", Trans: 5473, Items: 45, Density: "moderate", Classes: 5, Patterns: 25},
	"twitterwcs": {Name: "twitterwcs", Trans: 1264, Items: 900, Density: "sparse", Patterns: 80},
	"tictactoe":  {Name: "tictactoe", Trans: 958, Items: 29, Density: "moderate", Classes: 2, Patterns: 18},
}

// TransNames returns the known transactional dataset names in sorted order.
func TransNames() []string {
	names := make([]string, 0, len(transSpecs))
	for n := range transSpecs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Transactions is a generated transactional dataset: rows of sorted distinct
// item ids, plus class labels when the spec defines classes.
type Transactions struct {
	Name   string
	Items  int
	Rows   [][]int
	Labels []int
	Spec   TransSpec
}

// Size returns the token count Σ|row|, the |D| of chapter 4.
func (t *Transactions) Size() int {
	s := 0
	for _, r := range t.Rows {
		s += len(r)
	}
	return s
}

// NewTransactionsScaled generates the named transactional dataset, capping
// the row count at maxTrans (0 = spec size).
func NewTransactionsScaled(name string, maxTrans int, seed int64) (*Transactions, error) {
	spec, ok := transSpecs[name]
	if !ok {
		return nil, fmt.Errorf("dataset: unknown transactional set %q (known: %v)", name, TransNames())
	}
	n := spec.Trans
	if maxTrans > 0 && n > maxTrans {
		n = maxTrans
	}
	rng := rand.New(rand.NewSource(seed ^ hashName(name)))

	// Pattern length and per-transaction noise by density class.
	var patMin, patMax, noise int
	var patsPerTrans int
	switch spec.Density {
	case "dense":
		patMin, patMax, noise, patsPerTrans = 5, spec.Items/3, 2, 3
	case "moderate":
		patMin, patMax, noise, patsPerTrans = 3, spec.Items/5, 3, 2
	default: // sparse
		patMin, patMax, noise, patsPerTrans = 2, 8, 4, 1
	}
	if patMax <= patMin {
		patMax = patMin + 1
	}

	nClasses := spec.Classes
	if nClasses == 0 {
		nClasses = 1
	}
	// Pattern pool; each pattern is owned by one class (plus a shared pool)
	// so the Fig 4.9 classifiers have signal to find.
	type pattern struct {
		items []int
		class int // -1 = shared
	}
	pool := make([]pattern, spec.Patterns)
	for p := range pool {
		ln := patMin + rng.Intn(patMax-patMin)
		set := map[int]bool{}
		for len(set) < ln {
			set[rng.Intn(spec.Items)] = true
		}
		items := make([]int, 0, ln)
		for it := range set {
			items = append(items, it)
		}
		sort.Ints(items)
		class := -1
		if nClasses > 1 && p%3 != 0 { // two thirds of patterns are class-specific
			class = p % nClasses
		}
		pool[p] = pattern{items: items, class: class}
	}
	// Zipf over the pool: a few patterns are very frequent.
	zipf := rand.NewZipf(rng, 1.3, 1, uint64(spec.Patterns-1))

	t := &Transactions{Name: name, Items: spec.Items, Spec: spec}
	for i := 0; i < n; i++ {
		class := i % nClasses
		set := map[int]bool{}
		picked := 0
		for attempts := 0; picked < patsPerTrans && attempts < 30; attempts++ {
			p := pool[int(zipf.Uint64())]
			if p.class != -1 && p.class != class {
				continue
			}
			for _, it := range p.items {
				set[it] = true
			}
			picked++
		}
		for k := 0; k < noise; k++ {
			set[rng.Intn(spec.Items)] = true
		}
		row := make([]int, 0, len(set))
		for it := range set {
			row = append(row, it)
		}
		sort.Ints(row)
		t.Rows = append(t.Rows, row)
		if spec.Classes > 0 {
			t.Labels = append(t.Labels, class)
		}
	}
	return t, nil
}

// GraphSpec describes a web-graph stand-in for Table 4.3/4.6: power-law
// community sizes, near-biclique "link spam" blocks, and random background
// edges, exported as adjacency-list transactions (one row per vertex).
type GraphSpec struct {
	Name       string
	Vertices   int
	Comms      int     // number of communities
	IntraP     float64 // intra-community edge probability
	SpamBlocks int     // near-complete biclique blocks (long LAM patterns)
	SpamSize   int     // vertices per spam block
	InterDeg   int     // expected random inter-community out-degree
}

// graphSpecs scales the LAW crawls (10^7-10^9 edges) down to 10^4-10^5
// edges while keeping the near-clique blocks that give LAM its long
// low-support patterns (Fig 4.11).
var graphSpecs = map[string]GraphSpec{
	"eu2005":     {Name: "eu2005", Vertices: 3000, Comms: 40, IntraP: 0.35, SpamBlocks: 6, SpamSize: 60, InterDeg: 3},
	"it2004":     {Name: "it2004", Vertices: 5000, Comms: 60, IntraP: 0.30, SpamBlocks: 8, SpamSize: 70, InterDeg: 3},
	"arabic2005": {Name: "arabic2005", Vertices: 4000, Comms: 50, IntraP: 0.30, SpamBlocks: 7, SpamSize: 60, InterDeg: 3},
	"sk2005":     {Name: "sk2005", Vertices: 6000, Comms: 70, IntraP: 0.28, SpamBlocks: 10, SpamSize: 80, InterDeg: 3},
	"uk2006":     {Name: "uk2006", Vertices: 8000, Comms: 90, IntraP: 0.25, SpamBlocks: 12, SpamSize: 90, InterDeg: 4},
}

// GraphNames returns the known web-graph names in sorted order.
func GraphNames() []string {
	names := make([]string, 0, len(graphSpecs))
	for n := range graphSpecs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// NewWebGraphScaled generates the named web-graph stand-in as adjacency-list
// transactions (row v = sorted out-neighbours of v), capping the vertex
// count at maxVertices (0 = spec size).
func NewWebGraphScaled(name string, maxVertices int, seed int64) (*Transactions, error) {
	spec, ok := graphSpecs[name]
	if !ok {
		return nil, fmt.Errorf("dataset: unknown web graph %q (known: %v)", name, GraphNames())
	}
	nv := spec.Vertices
	if maxVertices > 0 && nv > maxVertices {
		nv = maxVertices
	}
	rng := rand.New(rand.NewSource(seed ^ hashName(name)))

	adj := make([]map[int]bool, nv)
	for i := range adj {
		adj[i] = map[int]bool{}
	}
	// Power-law-ish community sizes via repeated halving.
	commOf := make([]int, nv)
	for v := range commOf {
		c := 0
		for c < spec.Comms-1 && rng.Float64() < 0.55 {
			c++
		}
		commOf[v] = (c*7 + rng.Intn(spec.Comms)) % spec.Comms
	}
	byComm := make([][]int, spec.Comms)
	for v, c := range commOf {
		byComm[c] = append(byComm[c], v)
	}
	for _, members := range byComm {
		for i := 0; i < len(members); i++ {
			for j := i + 1; j < len(members); j++ {
				if rng.Float64() < spec.IntraP {
					adj[members[i]][members[j]] = true
					adj[members[j]][members[i]] = true
				}
			}
		}
	}
	// Link-spam blocks: groups of vertices that all point at the same large
	// target set — identical long adjacency rows, i.e. the >100-item
	// patterns closed mining cannot reach at feasible support.
	for b := 0; b < spec.SpamBlocks; b++ {
		size := spec.SpamSize
		if size > nv/4 {
			size = nv / 4
		}
		if size < 2 {
			break
		}
		targets := make([]int, 0, size)
		for len(targets) < size {
			targets = append(targets, rng.Intn(nv))
		}
		members := 5 + rng.Intn(10)
		for m := 0; m < members; m++ {
			v := rng.Intn(nv)
			for _, t := range targets {
				if t != v {
					adj[v][t] = true
				}
			}
		}
	}
	// Random inter-community edges.
	for v := 0; v < nv; v++ {
		for k := 0; k < spec.InterDeg; k++ {
			u := rng.Intn(nv)
			if u != v {
				adj[v][u] = true
			}
		}
	}

	t := &Transactions{Name: name, Items: nv, Spec: TransSpec{Name: name, Trans: nv, Items: nv, Density: "graph"}}
	for v := 0; v < nv; v++ {
		row := make([]int, 0, len(adj[v]))
		for u := range adj[v] {
			row = append(row, u)
		}
		sort.Ints(row)
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}
