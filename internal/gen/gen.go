// Package gen implements the graph generation models chapter 3 compares
// densifying real-data graphs against — Erdős–Rényi, preferential
// attachment, and random geometric. Every generator takes a target edge
// count, the only model criterion the graph-growth method requires ("the
// ability to control approximate edge count").
package gen

import (
	"maps"
	"math/rand"
	"slices"
	"sort"

	"plasmahd/internal/graph"
)

// ErdosRenyi returns a uniform random graph with exactly m distinct edges
// (the G(n, m) model), m clamped to C(n,2).
func ErdosRenyi(n, m int, seed int64) *graph.Graph {
	maxM := n * (n - 1) / 2
	if m > maxM {
		m = maxM
	}
	rng := rand.New(rand.NewSource(seed))
	seen := make(map[uint64]bool, m)
	edges := make([][2]int32, 0, m)
	for len(edges) < m {
		u := rng.Intn(n)
		v := rng.Intn(n)
		if u == v {
			continue
		}
		if u > v {
			u, v = v, u
		}
		key := uint64(u)<<32 | uint64(v)
		if seen[key] {
			continue
		}
		seen[key] = true
		edges = append(edges, [2]int32{int32(u), int32(v)})
	}
	return graph.FromEdges(n, edges)
}

// PreferentialAttachment grows a Barabási–Albert-style graph to
// approximately m edges: vertices arrive one at a time and attach
// degree-proportionally. The final edge count is adjusted to exactly m by
// adding uniform random edges or dropping late attachments.
func PreferentialAttachment(n, m int, seed int64) *graph.Graph {
	maxM := n * (n - 1) / 2
	if m > maxM {
		m = maxM
	}
	rng := rand.New(rand.NewSource(seed))
	perNode := m / n
	if perNode < 1 {
		perNode = 1
	}
	// Repeated-endpoints list: sampling uniformly from it is
	// degree-proportional sampling.
	var endpoints []int32
	seen := make(map[uint64]bool, m)
	edges := make([][2]int32, 0, m)
	addEdge := func(u, v int32) bool {
		if u == v {
			return false
		}
		a, b := u, v
		if a > b {
			a, b = b, a
		}
		key := uint64(a)<<32 | uint64(b)
		if seen[key] {
			return false
		}
		seen[key] = true
		edges = append(edges, [2]int32{a, b})
		endpoints = append(endpoints, a, b)
		return true
	}
	// Seed clique of perNode+1 vertices.
	k := perNode + 1
	if k > n {
		k = n
	}
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			addEdge(int32(i), int32(j))
		}
	}
	for v := k; v < n && len(edges) < m; v++ {
		for t := 0; t < perNode && len(edges) < m; t++ {
			for tries := 0; tries < 20; tries++ {
				u := endpoints[rng.Intn(len(endpoints))]
				if addEdge(int32(v), u) {
					break
				}
			}
		}
	}
	// Top up to exactly m with uniform edges.
	for len(edges) < m {
		u := int32(rng.Intn(n))
		v := int32(rng.Intn(n))
		addEdge(u, v)
	}
	if len(edges) > m {
		edges = edges[:m]
	}
	return graph.FromEdges(n, edges)
}

// RandomGeometric places n points uniformly in the unit square and connects
// the m closest pairs — the geometric model whose measure curves chapter 3
// finds closest in shape to real data.
func RandomGeometric(n, m int, seed int64) *graph.Graph {
	maxM := n * (n - 1) / 2
	if m > maxM {
		m = maxM
	}
	rng := rand.New(rand.NewSource(seed))
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		xs[i] = rng.Float64()
		ys[i] = rng.Float64()
	}
	type pair struct {
		d    float64
		u, v int32
	}
	pairs := make([]pair, 0, maxM)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			dx := xs[u] - xs[v]
			dy := ys[u] - ys[v]
			pairs = append(pairs, pair{d: dx*dx + dy*dy, u: int32(u), v: int32(v)})
		}
	}
	sort.Slice(pairs, func(a, b int) bool { return pairs[a].d < pairs[b].d })
	edges := make([][2]int32, 0, m)
	for i := 0; i < m; i++ {
		edges = append(edges, [2]int32{pairs[i].u, pairs[i].v})
	}
	return graph.FromEdges(n, edges)
}

// Model names a graph generation model M (§3.2).
type Model string

// The three models studied in chapter 3.
const (
	ModelER   Model = "er"
	ModelPA   Model = "pa"
	ModelGeom Model = "geom"
)

// GeneratorFunc builds a graph with n vertices and approximately m edges
// from a seed — the shape every chapter 3 model shares ("the ability to
// control approximate edge count" is the only model criterion).
type GeneratorFunc func(n, m int, seed int64) *graph.Graph

// models is the named-generator registry: every model a client (CLI flag,
// experiment spec, or plasmad session request) can ask for by name.
var models = map[Model]GeneratorFunc{
	ModelER:   ErdosRenyi,
	ModelPA:   PreferentialAttachment,
	ModelGeom: RandomGeometric,
}

// Models returns the registered model names in sorted order.
func Models() []Model {
	return slices.Sorted(maps.Keys(models))
}

// Lookup returns the registered generator for a model name.
func Lookup(model Model) (GeneratorFunc, bool) {
	f, ok := models[model]
	return f, ok
}

// Generate dispatches to the named model; unknown names fall back to
// Erdős–Rényi, the chapter's baseline model.
func Generate(model Model, n, m int, seed int64) *graph.Graph {
	if f, ok := models[model]; ok {
		return f(n, m, seed)
	}
	return ErdosRenyi(n, m, seed)
}
