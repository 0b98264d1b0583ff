package cluster

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// blobs generates n points around each of the given centers.
func blobs(rng *rand.Rand, centers [][]float64, n int, spread float64) ([][]float64, []int) {
	var x [][]float64
	var truth []int
	for ci, c := range centers {
		for i := 0; i < n; i++ {
			p := make([]float64, len(c))
			for j := range p {
				p[j] = c[j] + rng.NormFloat64()*spread
			}
			x = append(x, p)
			truth = append(truth, ci)
		}
	}
	return x, truth
}

func TestKMeansRecoversSeparatedBlobs(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	centers := [][]float64{{0, 0}, {10, 10}, {-10, 10}}
	x, truth := blobs(rng, centers, 40, 0.5)
	res := KMeans(x, 3, 100, 11)
	// Every ground-truth blob must map to exactly one k-means cluster.
	mapping := map[int]int{}
	for i, a := range res.Assign {
		if prev, ok := mapping[truth[i]]; ok && prev != a {
			t.Fatalf("blob %d split across clusters %d and %d", truth[i], prev, a)
		}
		mapping[truth[i]] = a
	}
	if len(mapping) != 3 {
		t.Fatalf("blobs merged: %v", mapping)
	}
	sizes := make([]int, len(res.Centroids))
	for _, a := range res.Assign {
		sizes[a]++
	}
	for ci, s := range sizes {
		if s != 40 {
			t.Errorf("cluster %d size %d want 40", ci, s)
		}
	}
	members := res.Members()
	total := 0
	for _, m := range members {
		total += len(m)
	}
	if total != len(x) {
		t.Errorf("members cover %d of %d points", total, len(x))
	}
}

func TestKMeansEdgeCases(t *testing.T) {
	if r := KMeans(nil, 3, 10, 1); len(r.Assign) != 0 {
		t.Error("empty input should give empty result")
	}
	// k > n clamps.
	x := [][]float64{{0}, {1}}
	r := KMeans(x, 10, 10, 1)
	if len(r.Centroids) != 2 {
		t.Errorf("k should clamp to n, got %d centroids", len(r.Centroids))
	}
	// k < 1 clamps to 1.
	r = KMeans(x, 0, 10, 1)
	if len(r.Centroids) != 1 {
		t.Errorf("k should clamp to 1, got %d", len(r.Centroids))
	}
	// Identical points must not crash or loop.
	same := [][]float64{{5, 5}, {5, 5}, {5, 5}}
	r = KMeans(same, 2, 10, 1)
	if r.Inertia > 1e-12 {
		t.Errorf("identical points inertia = %v", r.Inertia)
	}
}

func TestKMeansDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	x, _ := blobs(rng, [][]float64{{0, 0}, {5, 5}}, 30, 1)
	a := KMeans(x, 2, 50, 42)
	b := KMeans(x, 2, 50, 42)
	for i := range a.Assign {
		if a.Assign[i] != b.Assign[i] {
			t.Fatal("same seed must give same clustering")
		}
	}
}

func TestKMeansInvariantsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 10 + rng.Intn(40)
		x := make([][]float64, n)
		for i := range x {
			x[i] = []float64{rng.Float64() * 10, rng.Float64() * 10}
		}
		k := 1 + rng.Intn(5)
		r := KMeans(x, k, 30, seed)
		if len(r.Assign) != n || len(r.Centroids) > k {
			return false
		}
		for _, a := range r.Assign {
			if a < 0 || a >= len(r.Centroids) {
				return false
			}
		}
		return r.Inertia >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
