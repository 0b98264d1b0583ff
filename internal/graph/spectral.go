package graph

import (
	"math"
	"math/rand"
)

// TopEigenvalues estimates the k largest-magnitude adjacency eigenvalues by
// power iteration with deflation — the "Eigenvalues" measure of the chapter
// 3 sweeps. The adjacency matrix is symmetric so eigenvectors are orthogonal
// and deflation is stable. Results are sorted by descending magnitude.
func (g *Graph) TopEigenvalues(k int, iters int, seed int64) []float64 {
	n := g.N()
	if n == 0 || k <= 0 {
		return nil
	}
	if k > n {
		k = n
	}
	rng := rand.New(rand.NewSource(seed))
	var basis [][]float64
	vals := make([]float64, 0, k)
	v := make([]float64, n)
	next := make([]float64, n)
	for e := 0; e < k; e++ {
		for i := range v {
			v[i] = rng.NormFloat64()
		}
		orthogonalize(v, basis)
		normalize(v)
		var lambda float64
		for it := 0; it < iters; it++ {
			g.multiply(v, next)
			orthogonalize(next, basis)
			lambda = norm(next)
			if lambda == 0 {
				break
			}
			for i := range next {
				next[i] /= lambda
			}
			v, next = next, v
		}
		// Rayleigh quotient gives the signed eigenvalue.
		g.multiply(v, next)
		var rq float64
		for i := range v {
			rq += float64(v[i] * next[i])
		}
		vals = append(vals, rq)
		basis = append(basis, append([]float64(nil), v...))
	}
	return vals
}

// multiply sets out = A·v for the adjacency matrix A.
func (g *Graph) multiply(v, out []float64) {
	for i := range out {
		out[i] = 0
	}
	for u := range g.adj {
		var s float64
		for _, w := range g.adj[u] {
			s += v[w]
		}
		out[u] = s
	}
}

func orthogonalize(v []float64, basis [][]float64) {
	for _, b := range basis {
		var dot float64
		for i := range v {
			dot += float64(v[i] * b[i])
		}
		for i := range v {
			v[i] -= float64(dot * b[i])
		}
	}
}

func norm(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += float64(x * x)
	}
	return math.Sqrt(s)
}

func normalize(v []float64) {
	n := norm(v)
	if n == 0 {
		return
	}
	for i := range v {
		v[i] /= n
	}
}
