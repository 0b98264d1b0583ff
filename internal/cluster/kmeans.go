// Package cluster implements k-means clustering, the substrate behind
// chapter 3's stratified sampling ("the data is divided into 10 clusters
// using K-means") and the given-cluster input to the chapter 5 parallel
// coordinates visualizations.
//
// KMeans uses k-means++ seeding followed by Lloyd iterations and is fully
// deterministic for a given seed, so every experiment that stratifies or
// colors by cluster is reproducible run to run. The Result bundle exposes
// the per-point assignment, the centroids, the within-cluster inertia, and
// the Members view the samplers and renderers consume. Rows are
// plain []float64 slices in the original (typically z-normed) attribute
// space — callers normalize before clustering, as §3.5 does.
package cluster

import (
	"math"
	"math/rand"
)

// Result holds a k-means clustering: per-point assignments and centroids.
type Result struct {
	Assign    []int
	Centroids [][]float64
	Inertia   float64 // sum of squared distances to assigned centroids
}

// Members returns the point indices of each cluster.
func (r *Result) Members() [][]int {
	m := make([][]int, len(r.Centroids))
	for i, a := range r.Assign {
		m[a] = append(m[a], i)
	}
	return m
}

func sqDist(a, b []float64) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += float64(d * d)
	}
	return s
}

// KMeans clusters x into k groups using k-means++ seeding and Lloyd
// iterations, stopping after maxIter rounds or when assignments stabilize.
// It is deterministic for a given seed. k is clamped to len(x).
func KMeans(x [][]float64, k, maxIter int, seed int64) *Result {
	n := len(x)
	if n == 0 {
		return &Result{}
	}
	if k > n {
		k = n
	}
	if k < 1 {
		k = 1
	}
	rng := rand.New(rand.NewSource(seed))

	// k-means++ seeding.
	centroids := make([][]float64, 0, k)
	first := append([]float64(nil), x[rng.Intn(n)]...)
	centroids = append(centroids, first)
	d2 := make([]float64, n)
	for len(centroids) < k {
		var total float64
		for i, p := range x {
			best := math.Inf(1)
			for _, c := range centroids {
				if d := sqDist(p, c); d < best {
					best = d
				}
			}
			d2[i] = best
			total += best
		}
		var idx int
		if total == 0 {
			idx = rng.Intn(n)
		} else {
			r := rng.Float64() * total
			var acc float64
			for i, d := range d2 {
				acc += d
				if acc >= r {
					idx = i
					break
				}
			}
		}
		centroids = append(centroids, append([]float64(nil), x[idx]...))
	}

	assign := make([]int, n)
	for i := range assign {
		assign[i] = -1
	}
	dim := len(x[0])
	for iter := 0; iter < maxIter; iter++ {
		changed := false
		for i, p := range x {
			best, bi := math.Inf(1), 0
			for ci, c := range centroids {
				if d := sqDist(p, c); d < best {
					best, bi = d, ci
				}
			}
			if assign[i] != bi {
				assign[i] = bi
				changed = true
			}
		}
		if !changed {
			break
		}
		counts := make([]int, k)
		for ci := range centroids {
			for j := range centroids[ci] {
				centroids[ci][j] = 0
			}
		}
		for i, p := range x {
			a := assign[i]
			counts[a]++
			for j := 0; j < dim; j++ {
				centroids[a][j] += p[j]
			}
		}
		for ci, c := range counts {
			if c == 0 {
				// Re-seed an empty cluster at a random point.
				copy(centroids[ci], x[rng.Intn(n)])
				continue
			}
			for j := range centroids[ci] {
				centroids[ci][j] /= float64(c)
			}
		}
	}

	var inertia float64
	for i, p := range x {
		inertia += sqDist(p, centroids[assign[i]])
	}
	return &Result{Assign: assign, Centroids: centroids, Inertia: inertia}
}
