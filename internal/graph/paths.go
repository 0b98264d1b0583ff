package graph

// bfsDistances fills dist (must be len N, will be reset to -1) with hop
// counts from src and returns the farthest vertex and its distance.
func (g *Graph) bfsDistances(src int32, dist []int32, queue []int32) (far int32, ecc int32) {
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue = append(queue[:0], src)
	far, ecc = src, 0
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		for _, w := range g.adj[v] {
			if dist[w] == -1 {
				dist[w] = dist[v] + 1
				queue = append(queue, w)
				if dist[w] > ecc {
					ecc = dist[w]
					far = w
				}
			}
		}
	}
	return far, ecc
}

// Diameter returns the exact diameter of the largest connected component
// (max eccentricity, BFS from every vertex). For complete graphs it returns
// 1 analytically.
func (g *Graph) Diameter() int {
	if g.N() == 0 {
		return 0
	}
	if g.IsComplete() {
		if g.N() <= 1 {
			return 0
		}
		return 1
	}
	lcc := g.LargestComponent()
	sub := g.Subgraph(lcc)
	dist := make([]int32, sub.N())
	queue := make([]int32, 0, sub.N())
	best := int32(0)
	for v := 0; v < sub.N(); v++ {
		if _, ecc := sub.bfsDistances(int32(v), dist, queue); ecc > best {
			best = ecc
		}
	}
	return int(best)
}

// ApproxDiameter lower-bounds the diameter with the double-sweep heuristic:
// BFS from an arbitrary vertex, then BFS from the farthest vertex found.
// Exact on trees, and within small error on real-world graphs; the cheap
// variant chapter 3 needs on dense graphs.
func (g *Graph) ApproxDiameter() int {
	if g.N() == 0 {
		return 0
	}
	lcc := g.LargestComponent()
	sub := g.Subgraph(lcc)
	dist := make([]int32, sub.N())
	queue := make([]int32, 0, sub.N())
	far, _ := sub.bfsDistances(0, dist, queue)
	_, ecc := sub.bfsDistances(far, dist, queue)
	return int(ecc)
}

// Betweenness computes exact betweenness centrality for every vertex with
// Brandes' algorithm (unweighted), O(nm). Scores use the standard 1/2
// normalization for undirected graphs.
func (g *Graph) Betweenness() []float64 {
	n := g.N()
	bc := make([]float64, n)
	dist := make([]int32, n)
	sigma := make([]float64, n)
	delta := make([]float64, n)
	queue := make([]int32, 0, n)
	preds := make([][]int32, n)

	for s := 0; s < n; s++ {
		for i := 0; i < n; i++ {
			dist[i] = -1
			sigma[i] = 0
			delta[i] = 0
			preds[i] = preds[i][:0]
		}
		dist[s] = 0
		sigma[s] = 1
		queue = append(queue[:0], int32(s))
		for head := 0; head < len(queue); head++ {
			v := queue[head]
			for _, w := range g.adj[v] {
				if dist[w] == -1 {
					dist[w] = dist[v] + 1
					queue = append(queue, w)
				}
				if dist[w] == dist[v]+1 {
					sigma[w] += sigma[v]
					preds[w] = append(preds[w], v)
				}
			}
		}
		// Accumulate in reverse BFS order.
		for i := len(queue) - 1; i > 0; i-- {
			w := queue[i]
			for _, v := range preds[w] {
				delta[v] += float64(sigma[v] / sigma[w] * (1 + delta[w]))
			}
			bc[w] += delta[w]
		}
	}
	for i := range bc {
		bc[i] /= 2 // each undirected path counted from both endpoints
	}
	return bc
}

// MeanBetweenness returns the average betweenness centrality — the
// Figs 3.19/3.20 "Mean Betweenness Centrality" series.
func (g *Graph) MeanBetweenness() float64 {
	bc := g.Betweenness()
	var s float64
	for _, v := range bc {
		s += v
	}
	if len(bc) == 0 {
		return 0
	}
	return s / float64(len(bc))
}
