package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// path5 is 0-1-2-3-4.
func path5() *Graph {
	return FromEdges(5, [][2]int32{{0, 1}, {1, 2}, {2, 3}, {3, 4}})
}

// k4 is the complete graph on 4 vertices.
func k4() *Graph {
	return FromEdges(4, [][2]int32{{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}})
}

func randomGraph(rng *rand.Rand, n int, p float64) *Graph {
	var edges [][2]int32
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < p {
				edges = append(edges, [2]int32{int32(u), int32(v)})
			}
		}
	}
	return FromEdges(n, edges)
}

func TestFromEdgesDedupAndLoops(t *testing.T) {
	g := FromEdges(3, [][2]int32{{0, 1}, {1, 0}, {0, 1}, {2, 2}})
	if g.M() != 1 {
		t.Errorf("M = %d want 1", g.M())
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) {
		t.Error("edge 0-1 missing")
	}
	if g.HasEdge(2, 2) || g.HasEdge(0, 2) {
		t.Error("phantom edges")
	}
	if g.Degree(2) != 0 {
		t.Error("self loop should be dropped")
	}
}

func TestBasicAccessors(t *testing.T) {
	g := path5()
	if g.N() != 5 || g.M() != 4 {
		t.Fatalf("N=%d M=%d", g.N(), g.M())
	}
	if g.MeanDegree() != 1.6 {
		t.Errorf("mean degree %v", g.MeanDegree())
	}
	if g.IsComplete() {
		t.Error("path is not complete")
	}
	if !k4().IsComplete() {
		t.Error("k4 is complete")
	}
	d := g.Degrees()
	if d[0] != 1 || d[2] != 2 {
		t.Errorf("degrees %v", d)
	}
}

func TestConnectedComponents(t *testing.T) {
	g := FromEdges(6, [][2]int32{{0, 1}, {1, 2}, {3, 4}})
	comp, k := g.ConnectedComponents()
	if k != 3 {
		t.Fatalf("components = %d want 3 (two edges groups + isolated 5)", k)
	}
	if comp[0] != comp[1] || comp[1] != comp[2] {
		t.Error("0,1,2 should share a component")
	}
	if comp[3] != comp[4] || comp[3] == comp[0] {
		t.Error("3,4 separate component")
	}
	lcc := g.LargestComponent()
	if len(lcc) != 3 {
		t.Errorf("largest component size %d", len(lcc))
	}
}

func TestSubgraph(t *testing.T) {
	g := k4()
	sub := g.Subgraph([]int32{0, 1, 2})
	if sub.N() != 3 || sub.M() != 3 {
		t.Errorf("induced K3: N=%d M=%d", sub.N(), sub.M())
	}
}

func TestCoreNumbers(t *testing.T) {
	// K4 with a pendant vertex: core numbers 3,3,3,3,1.
	g := FromEdges(5, [][2]int32{{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}, {3, 4}})
	cores := g.CoreNumbers()
	want := []int{3, 3, 3, 3, 1}
	for i, w := range want {
		if cores[i] != w {
			t.Errorf("core[%d] = %d want %d", i, cores[i], w)
		}
	}
}

func TestCoreNumbersPath(t *testing.T) {
	cores := path5().CoreNumbers()
	for i, c := range cores {
		if c != 1 {
			t.Errorf("path core[%d] = %d want 1", i, c)
		}
	}
}

// bruteTriangles counts triangles in O(n^3).
func bruteTriangles(g *Graph) int64 {
	var count int64
	n := g.N()
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			if !g.HasEdge(a, b) {
				continue
			}
			for c := b + 1; c < n; c++ {
				if g.HasEdge(a, c) && g.HasEdge(b, c) {
					count++
				}
			}
		}
	}
	return count
}

func TestTrianglesKnown(t *testing.T) {
	if got := k4().Triangles(); got != 4 {
		t.Errorf("K4 triangles = %d want 4", got)
	}
	if got := path5().Triangles(); got != 0 {
		t.Errorf("path triangles = %d want 0", got)
	}
	per := k4().TrianglesPerVertex()
	for v, c := range per {
		if c != 3 {
			t.Errorf("K4 vertex %d in %d triangles, want 3", v, c)
		}
	}
}

func TestTrianglesMatchBruteForceProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng, 4+rng.Intn(20), 0.3)
		return g.Triangles() == bruteTriangles(g)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestClusteringCoefficient(t *testing.T) {
	if cc := k4().ClusteringCoefficient(); cc != 1 {
		t.Errorf("K4 clustering = %v", cc)
	}
	if cc := path5().ClusteringCoefficient(); cc != 0 {
		t.Errorf("path clustering = %v", cc)
	}
}

func TestDiameter(t *testing.T) {
	if d := path5().Diameter(); d != 4 {
		t.Errorf("path diameter = %d want 4", d)
	}
	if d := k4().Diameter(); d != 1 {
		t.Errorf("K4 diameter = %d want 1", d)
	}
	// Disconnected: diameter of the largest component.
	g := FromEdges(7, [][2]int32{{0, 1}, {1, 2}, {2, 3}, {5, 6}})
	if d := g.Diameter(); d != 3 {
		t.Errorf("disconnected diameter = %d want 3", d)
	}
	if New(0).Diameter() != 0 {
		t.Error("empty graph diameter")
	}
}

func TestApproxDiameterLowerBound(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng, 5+rng.Intn(25), 0.15)
		exact := g.Diameter()
		approx := g.ApproxDiameter()
		return approx <= exact && approx >= (exact+1)/2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// bruteBetweenness computes betweenness via explicit shortest-path
// enumeration (BFS per pair), for cross-checking Brandes.
func bruteBetweenness(g *Graph) []float64 {
	n := g.N()
	bc := make([]float64, n)
	// All-pairs shortest path counts via BFS from each source.
	dist := make([][]int, n)
	sigma := make([][]float64, n)
	for s := 0; s < n; s++ {
		dist[s] = make([]int, n)
		sigma[s] = make([]float64, n)
		for i := range dist[s] {
			dist[s][i] = -1
		}
		dist[s][s] = 0
		sigma[s][s] = 1
		queue := []int{s}
		for h := 0; h < len(queue); h++ {
			v := queue[h]
			for _, w := range g.Neighbors(v) {
				if dist[s][w] == -1 {
					dist[s][w] = dist[s][v] + 1
					queue = append(queue, int(w))
				}
				if dist[s][w] == dist[s][v]+1 {
					sigma[s][w] += sigma[s][v]
				}
			}
		}
	}
	for s := 0; s < n; s++ {
		for t := s + 1; t < n; t++ {
			if dist[s][t] <= 0 {
				continue
			}
			for v := 0; v < n; v++ {
				if v == s || v == t {
					continue
				}
				if dist[s][v] >= 0 && dist[v][t] >= 0 && dist[s][v]+dist[v][t] == dist[s][t] {
					bc[v] += sigma[s][v] * sigma[v][t] / sigma[s][t]
				}
			}
		}
	}
	return bc
}

func TestBetweennessKnown(t *testing.T) {
	// Star on 4 leaves: center lies on all C(4,2)=6 leaf pairs.
	g := FromEdges(5, [][2]int32{{0, 1}, {0, 2}, {0, 3}, {0, 4}})
	bc := g.Betweenness()
	if bc[0] != 6 {
		t.Errorf("star center betweenness = %v want 6", bc[0])
	}
	for v := 1; v < 5; v++ {
		if bc[v] != 0 {
			t.Errorf("leaf %d betweenness = %v want 0", v, bc[v])
		}
	}
}

func TestBetweennessMatchesBruteForceProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng, 4+rng.Intn(12), 0.35)
		got := g.Betweenness()
		want := bruteBetweenness(g)
		for i := range got {
			if diff := got[i] - want[i]; diff > 1e-9 || diff < -1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestCliques(t *testing.T) {
	cs := k4().Cliques(0)
	if cs.CliqueNumber != 4 || cs.MaximalCount != 1 || !cs.Exact {
		t.Errorf("K4 cliques = %+v", cs)
	}
	cs = path5().Cliques(0)
	if cs.CliqueNumber != 2 || cs.MaximalCount != 4 {
		t.Errorf("path cliques = %+v (want 4 maximal edges)", cs)
	}
	// Two disjoint triangles.
	g := FromEdges(6, [][2]int32{{0, 1}, {1, 2}, {0, 2}, {3, 4}, {4, 5}, {3, 5}})
	cs = g.Cliques(0)
	if cs.CliqueNumber != 3 || cs.MaximalCount != 2 {
		t.Errorf("two triangles = %+v", cs)
	}
	// Budget exhaustion flags inexact.
	rng := rand.New(rand.NewSource(1))
	big := randomGraph(rng, 40, 0.5)
	cs = big.Cliques(5)
	if cs.Exact {
		t.Error("tiny budget should be flagged inexact")
	}
	if New(0).Cliques(0).CliqueNumber != 0 {
		t.Error("empty graph cliques")
	}
}

func TestTopEigenvalues(t *testing.T) {
	// Complete graph K4: eigenvalues {3, -1, -1, -1}.
	ev := k4().TopEigenvalues(2, 200, 1)
	if len(ev) != 2 {
		t.Fatalf("want 2 eigenvalues, got %d", len(ev))
	}
	if diff := ev[0] - 3; diff > 0.01 || diff < -0.01 {
		t.Errorf("K4 top eigenvalue %v want 3", ev[0])
	}
	if diff := ev[1] + 1; diff > 0.05 || diff < -0.05 {
		t.Errorf("K4 second eigenvalue %v want -1", ev[1])
	}
	if got := New(0).TopEigenvalues(1, 10, 1); got != nil {
		t.Error("empty graph eigenvalues")
	}
}

func TestMeanAvgNeighborDegree(t *testing.T) {
	// Star: center's neighbors have degree 1 (avg 1); each leaf's neighbor
	// has degree 4. Mean over 5 vertices = (1 + 4*4)/5.
	g := FromEdges(5, [][2]int32{{0, 1}, {0, 2}, {0, 3}, {0, 4}})
	want := (1.0 + 4*4.0) / 5
	if got := g.MeanAvgNeighborDegree(); got != want {
		t.Errorf("MAND = %v want %v", got, want)
	}
}

func TestMeasuresRegistry(t *testing.T) {
	g := k4()
	for _, name := range MeasureNames {
		fn, ok := Measures[name]
		if !ok {
			t.Fatalf("measure %q missing from registry", name)
		}
		v := fn(g)
		if v < 0 {
			t.Errorf("measure %q negative on K4: %v", name, v)
		}
	}
	if got := Measures["triangles"](g); got != 4 {
		t.Errorf("registry triangles = %v", got)
	}
	if got := Measures["number_connected_components"](g); got != 1 {
		t.Errorf("registry components = %v", got)
	}
	if got := Measures["mean_degree_centrality"](g); got != 1 {
		t.Errorf("K4 degree centrality = %v want 1", got)
	}
}
