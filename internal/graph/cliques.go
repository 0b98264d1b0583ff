package graph

// CliqueStats holds the Bron–Kerbosch outputs the chapter 3 measure sweep
// reports: the clique number and the number of maximal cliques. Exact is
// false when the enumeration budget was exhausted (dense graphs), in which
// case the values are lower bounds.
type CliqueStats struct {
	CliqueNumber int
	MaximalCount int64
	Exact        bool
}

// Cliques enumerates maximal cliques with Bron–Kerbosch (greedy pivoting),
// stopping after budget recursive calls (budget <= 0 means unlimited).
// Complete graphs short-circuit analytically as in §3.5: clique number n,
// one maximal clique.
func (g *Graph) Cliques(budget int64) CliqueStats {
	if g.N() == 0 {
		return CliqueStats{Exact: true}
	}
	if g.IsComplete() {
		return CliqueStats{CliqueNumber: g.N(), MaximalCount: 1, Exact: true}
	}
	e := &bkEnum{g: g, budget: budget}
	all := make([]int32, g.N())
	for i := range all {
		all[i] = int32(i)
	}
	e.run(nil, all, nil)
	return CliqueStats{CliqueNumber: e.best, MaximalCount: e.count, Exact: !e.capped}
}

type bkEnum struct {
	g      *Graph
	budget int64
	calls  int64
	capped bool
	best   int
	count  int64
}

// run is Bron–Kerbosch with pivoting: r current clique, p candidates,
// x already-processed vertices.
func (e *bkEnum) run(r, p, x []int32) {
	if e.capped {
		return
	}
	e.calls++
	if e.budget > 0 && e.calls > e.budget {
		e.capped = true
		return
	}
	if len(p) == 0 && len(x) == 0 {
		e.count++
		if len(r) > e.best {
			e.best = len(r)
		}
		return
	}
	// Pivot: vertex of P∪X with most neighbours in P.
	var pivot int32 = -1
	bestCover := -1
	for _, cand := range [][]int32{p, x} {
		for _, u := range cand {
			c := countIntersect(e.g.adj[u], p)
			if c > bestCover {
				bestCover = c
				pivot = u
			}
		}
	}
	// Iterate P \ N(pivot).
	ext := make([]int32, 0, len(p)-bestCover)
	for _, v := range p {
		if pivot == -1 || !e.g.HasEdge(int(pivot), int(v)) {
			ext = append(ext, v)
		}
	}
	for _, v := range ext {
		nv := e.g.adj[v]
		e.run(append(r, v), intersect(p, nv), intersect(x, nv))
		if e.capped {
			return
		}
		p = remove(p, v)
		x = insertSorted(x, v) // keep X sorted for the intersections above
	}
}

// insertSorted inserts v into sorted slice s, returning a new slice.
func insertSorted(s []int32, v int32) []int32 {
	i := 0
	for i < len(s) && s[i] < v {
		i++
	}
	out := make([]int32, 0, len(s)+1)
	out = append(out, s[:i]...)
	out = append(out, v)
	out = append(out, s[i:]...)
	return out
}

// intersect returns the sorted intersection of sorted slices a and b.
func intersect(a, b []int32) []int32 {
	out := make([]int32, 0, min(len(a), len(b)))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			out = append(out, a[i])
			i++
			j++
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	return out
}

func countIntersect(a, b []int32) int {
	c, i, j := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			c++
			i++
			j++
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	return c
}

func remove(s []int32, v int32) []int32 {
	out := make([]int32, 0, len(s))
	for _, w := range s {
		if w != v {
			out = append(out, w)
		}
	}
	return out
}
