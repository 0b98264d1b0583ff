package core

import (
	"sort"

	"plasmahd/internal/bayeslsh"
	"plasmahd/internal/graph"
)

// KNNGraph materializes the per-node top-K similarity graph from the
// knowledge cache — the §2.5 extension ("changing the graph-formation
// objective from a graph-wide global threshold to a per-node top-K") that
// lets PLASMA-HD guide nearest-neighbour graph construction for manifold
// learning and clustered indexing. Each vertex contributes edges to its K
// most similar cached counterparts; the union is returned as an undirected
// graph. Fidelity depends on how low the session has probed: pairs the
// engine pruned early carry only coarse estimates.
func (s *Session) KNNGraph(k int) *graph.Graph {
	type scored struct {
		j   int32
		est float64
	}
	n := s.Dataset().N()
	neigh := make([][]scored, n)
	s.Cache.Pairs.Range(func(key uint64, ps bayeslsh.PairState) bool {
		i, j := bayeslsh.UnpackKey(key)
		if int(j) >= n {
			// Written by a concurrent probe that already saw appended
			// rows; the store visits by larger row, so all the rest are.
			return false
		}
		est := s.Cache.Estimate(ps)
		neigh[i] = append(neigh[i], scored{j, est})
		neigh[j] = append(neigh[j], scored{i, est})
		return true
	})
	var edges [][2]int32
	for v := range neigh {
		l := neigh[v]
		sort.Slice(l, func(a, b int) bool {
			if l[a].est != l[b].est {
				return l[a].est > l[b].est
			}
			return l[a].j < l[b].j
		})
		top := k
		if top > len(l) {
			top = len(l)
		}
		for _, sc := range l[:top] {
			edges = append(edges, [2]int32{int32(v), sc.j})
		}
	}
	return graph.FromEdges(n, edges)
}

// KNNThresholdEquivalent reports, for a given K, the similarity of the
// weakest edge each vertex keeps — the per-node threshold distribution a
// user would need to reproduce the top-K graph with a global threshold.
// Its spread is the §2.5 argument for top-K formation: a single global t
// cannot serve all vertices.
func (s *Session) KNNThresholdEquivalent(k int) []float64 {
	n := s.Dataset().N()
	weakest := make([]float64, 0, n)
	kth := make([][]float64, n)
	s.Cache.Pairs.Range(func(key uint64, ps bayeslsh.PairState) bool {
		i, j := bayeslsh.UnpackKey(key)
		if int(j) >= n {
			return false
		}
		est := s.Cache.Estimate(ps)
		kth[i] = append(kth[i], est)
		kth[j] = append(kth[j], est)
		return true
	})
	for _, l := range kth {
		if len(l) == 0 {
			continue
		}
		sort.Sort(sort.Reverse(sort.Float64Slice(l)))
		idx := k - 1
		if idx >= len(l) {
			idx = len(l) - 1
		}
		weakest = append(weakest, l[idx])
	}
	return weakest
}
