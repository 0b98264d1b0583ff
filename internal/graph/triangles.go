package graph

import "sort"

// Triangles counts triangles with the compact-forward algorithm
// (degree-ordered neighbour intersection), O(m^1.5). For complete graphs it
// returns C(n,3) analytically, the shortcut §3.5 applies at full density.
func (g *Graph) Triangles() int64 {
	if g.IsComplete() {
		n := int64(g.N())
		return n * (n - 1) * (n - 2) / 6
	}
	t, _ := g.triangleScan(false)
	return t
}

// TrianglesPerVertex returns the number of triangles incident on each vertex
// — the triangle vertex-cover histogram source of Fig 2.5b.
func (g *Graph) TrianglesPerVertex() []int64 {
	_, per := g.triangleScan(true)
	return per
}

// triangleScan runs compact-forward once; when perVertex is set it also
// attributes each triangle to its three corners.
func (g *Graph) triangleScan(perVertex bool) (int64, []int64) {
	n := g.N()
	// rank: ascending degree, ties by id; higher rank = higher degree.
	order := make([]int32, n)
	for i := range order {
		order[i] = int32(i)
	}
	sort.Slice(order, func(a, b int) bool {
		da, db := len(g.adj[order[a]]), len(g.adj[order[b]])
		if da != db {
			return da < db
		}
		return order[a] < order[b]
	})
	rank := make([]int32, n)
	for r, v := range order {
		rank[v] = int32(r)
	}
	// N+(v): neighbours with higher rank, sorted by rank.
	higher := make([][]int32, n)
	for v := 0; v < n; v++ {
		for _, w := range g.adj[v] {
			if rank[w] > rank[v] {
				higher[v] = append(higher[v], w)
			}
		}
		h := higher[v]
		sort.Slice(h, func(a, b int) bool { return rank[h[a]] < rank[h[b]] })
	}
	var count int64
	var per []int64
	if perVertex {
		per = make([]int64, n)
	}
	for v := 0; v < n; v++ {
		for _, u := range higher[v] {
			// Intersect higher[v] and higher[u] by rank order.
			a, b := higher[v], higher[u]
			i, j := 0, 0
			for i < len(a) && j < len(b) {
				ra, rb := rank[a[i]], rank[b[j]]
				switch {
				case ra == rb:
					count++
					if perVertex {
						per[v]++
						per[u]++
						per[a[i]]++
					}
					i++
					j++
				case ra < rb:
					i++
				default:
					j++
				}
			}
		}
	}
	return count, per
}

// ClusteringCoefficient returns the average local clustering coefficient:
// mean over vertices of triangles(v) / C(deg(v), 2), skipping degree<2
// vertices as 0 (networkx convention).
func (g *Graph) ClusteringCoefficient() float64 {
	per := g.TrianglesPerVertex()
	var sum float64
	for v, t := range per {
		d := g.Degree(v)
		if d >= 2 {
			sum += float64(t) / float64(d*(d-1)/2)
		}
	}
	if g.N() == 0 {
		return 0
	}
	return sum / float64(g.N())
}
