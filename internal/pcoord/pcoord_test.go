package pcoord

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"plasmahd/internal/cluster"
	"plasmahd/internal/dataset"
)

func TestCountCrossingsKnown(t *testing.T) {
	// Fig 5.3-style: two items swap order -> one crossing.
	if c := CountCrossings([]float64{0, 1}, []float64{1, 0}); c != 1 {
		t.Errorf("swap crossing = %d", c)
	}
	// Parallel lines: none.
	if c := CountCrossings([]float64{0, 1, 2}, []float64{3, 4, 5}); c != 0 {
		t.Errorf("parallel = %d", c)
	}
	// Full reversal of n items: C(n,2) crossings.
	a := []float64{0, 1, 2, 3, 4}
	b := []float64{4, 3, 2, 1, 0}
	if c := CountCrossings(a, b); c != 10 {
		t.Errorf("reversal = %d want 10", c)
	}
	// Ties never cross.
	if c := CountCrossings([]float64{1, 1}, []float64{0, 5}); c != 0 {
		t.Errorf("tie on a = %d", c)
	}
	if c := CountCrossings([]float64{0, 5}, []float64{2, 2}); c != 0 {
		t.Errorf("tie on b = %d", c)
	}
	if c := CountCrossings(nil, nil); c != 0 {
		t.Errorf("empty = %d", c)
	}
}

func TestCountCrossingsMatchesBruteProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(60)
		a := make([]float64, n)
		b := make([]float64, n)
		for i := range a {
			// Small integer grids force plenty of ties.
			a[i] = float64(rng.Intn(8))
			b[i] = float64(rng.Intn(8))
		}
		return CountCrossings(a, b) == BruteCrossings(a, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

func TestCrossingMatrixSymmetric(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	data := make([][]float64, 40)
	for i := range data {
		data[i] = []float64{rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64()}
	}
	m := CrossingMatrix(data)
	for i := range m {
		if m[i][i] != 0 {
			t.Error("diagonal must be zero")
		}
		for j := range m {
			if m[i][j] != m[j][i] {
				t.Error("matrix must be symmetric")
			}
		}
	}
}

func TestCrossingTriangleInequalityProperty(t *testing.T) {
	// Kendall-tau crossing counts form a metric — the claim that licenses
	// the MST 2-approximation (§5.2.2).
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(30)
		data := make([][]float64, n)
		for i := range data {
			data[i] = []float64{rng.Float64(), rng.Float64(), rng.Float64()}
		}
		m := CrossingMatrix(data)
		return m[0][2] <= m[0][1]+m[1][2] &&
			m[0][1] <= m[0][2]+m[2][1] &&
			m[1][2] <= m[1][0]+m[0][2]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func randomMatrix(rng *rand.Rand, d int) [][]int64 {
	// Build a metric matrix from random permutation columns.
	n := 25
	data := make([][]float64, n)
	for i := range data {
		data[i] = make([]float64, d)
		for j := range data[i] {
			data[i][j] = rng.Float64()
		}
	}
	return CrossingMatrix(data)
}

func TestOrderingsValidAndApproxBound(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 10; trial++ {
		d := 4 + rng.Intn(5)
		m := randomMatrix(rng, d)
		approx := OrderMST(m)
		exact := OrderExact(m)
		if len(approx) != d || len(exact) != d {
			t.Fatalf("order lengths %d %d want %d", len(approx), len(exact), d)
		}
		seen := map[int]bool{}
		for _, v := range approx {
			if seen[v] {
				t.Fatal("approx order repeats a dimension")
			}
			seen[v] = true
		}
		ca := TotalCrossings(approx, m)
		ce := TotalCrossings(exact, m)
		if ca < ce {
			t.Fatalf("approx %d beat exact %d — exact DP broken", ca, ce)
		}
		if ce > 0 && float64(ca) > 2*float64(ce)+1 {
			t.Errorf("approx %d exceeds 2x exact %d — 2-approximation violated", ca, ce)
		}
	}
}

func TestOrderExactSmallCases(t *testing.T) {
	if OrderExact(nil) != nil {
		t.Error("empty")
	}
	if got := OrderExact([][]int64{{0}}); len(got) != 1 || got[0] != 0 {
		t.Error("single dim")
	}
	// d=3 path: weights force order 0-2-1 (or reverse).
	m := [][]int64{
		{0, 10, 1},
		{10, 0, 1},
		{1, 1, 0},
	}
	got := OrderExact(m)
	if TotalCrossings(got, m) != 2 {
		t.Errorf("exact path cost %d want 2 (%v)", TotalCrossings(got, m), got)
	}
	// Over the limit returns nil.
	big := make([][]int64, MaxExactDims+1)
	for i := range big {
		big[i] = make([]int64, MaxExactDims+1)
	}
	if OrderExact(big) != nil {
		t.Error("over-limit should return nil")
	}
}

func TestCompareOrderings(t *testing.T) {
	tab, err := dataset.NewTableScaled("winepc", 100, 1)
	if err != nil {
		t.Fatal(err)
	}
	cmp := CompareOrderings(tab.X)
	if cmp.ApproxCross > cmp.OriginalCross {
		t.Errorf("MST ordering (%d) should not exceed identity ordering (%d)",
			cmp.ApproxCross, cmp.OriginalCross)
	}
	if cmp.ExactOrder == nil {
		t.Fatal("13 dims should allow exact ordering")
	}
	if cmp.ExactCross > cmp.ApproxCross {
		t.Error("exact must be at least as good as approx")
	}
}

func TestReduceEnergyConverges(t *testing.T) {
	// Theorem 1: energy must be non-increasing and the loop must stop.
	rng := rand.New(rand.NewSource(4))
	n := 120
	left := make([]float64, n)
	right := make([]float64, n)
	clusters := make([]int, n)
	for i := range left {
		c := i % 3
		clusters[i] = c
		base := float64(c) / 3
		left[i] = base + rng.Float64()*0.3
		right[i] = base + rng.Float64()*0.3
	}
	res := ReduceEnergy(left, right, clusters, 3, DefaultEnergyParams())
	if res.Iterations == 0 || res.Iterations >= 1000 {
		t.Errorf("iterations = %d", res.Iterations)
	}
	for i := 1; i < len(res.Energies); i++ {
		if res.Energies[i] > res.Energies[i-1]+1e-9 {
			t.Fatalf("energy increased at iter %d: %v -> %v", i, res.Energies[i-1], res.Energies[i])
		}
	}
	// Lines in the same cluster must end closer together than they started:
	// within-cluster variance of z must shrink vs the straight-line midpoints.
	varOf := func(vals []float64, cl []int, c int) float64 {
		var s, ss, cnt float64
		for i, v := range vals {
			if cl[i] != c {
				continue
			}
			s += v
			ss += v * v
			cnt++
		}
		if cnt == 0 {
			return 0
		}
		mean := s / cnt
		return ss/cnt - mean*mean
	}
	mid := make([]float64, n)
	for i := range mid {
		mid[i] = (left[i] + right[i]) / 2
	}
	for c := 0; c < 3; c++ {
		if varOf(res.Z, res.ClusterOf, c) >= varOf(mid, res.ClusterOf, c) {
			t.Errorf("cluster %d did not contract", c)
		}
	}
}

func TestReduceEnergyWeighted(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n := 90
	left := make([]float64, n)
	right := make([]float64, n)
	clusters := make([]int, n)
	for i := range left {
		c := i % 3
		clusters[i] = c
		left[i] = float64(c)/3 + rng.Float64()*0.2
		right[i] = float64(c)/3 + rng.Float64()*0.2
	}
	p := DefaultEnergyParams()
	p.Weighted = true
	res := ReduceEnergy(left, right, clusters, 3, p)
	for i := 1; i < len(res.Energies); i++ {
		if res.Energies[i] > res.Energies[i-1]+1e-9 {
			t.Fatal("weighted energy increased")
		}
	}
}

func TestReduceEnergyEdgeCases(t *testing.T) {
	res := ReduceEnergy(nil, nil, nil, 0, DefaultEnergyParams())
	if len(res.Z) != 0 {
		t.Error("empty input")
	}
	// Single cluster: every item is in a boundary cluster; still converges.
	res = ReduceEnergy([]float64{0.1, 0.9}, []float64{0.2, 0.8}, []int{0, 0}, 1, DefaultEnergyParams())
	if len(res.Z) != 2 {
		t.Fatal("single cluster Z")
	}
}

func TestNormalizeColumns(t *testing.T) {
	data := [][]float64{{0, 10, 7}, {5, 20, 7}, {10, 30, 7}}
	NormalizeColumns(data)
	if data[0][0] != 0 || data[2][0] != 1 || data[1][0] != 0.5 {
		t.Errorf("column 0: %v", data)
	}
	if data[0][2] != 0.5 {
		t.Error("constant column should map to 0.5")
	}
	NormalizeColumns(nil)
}

func TestRenderSVG(t *testing.T) {
	tab, err := dataset.NewTableScaled("winepc", 60, 1)
	if err != nil {
		t.Fatal(err)
	}
	NormalizeColumns(tab.X)
	km := cluster.KMeans(tab.X, 4, 20, 1)
	svg := RenderSVG(tab.X, km.Assign, 4, RenderOptions{})
	if !strings.HasPrefix(svg, "<svg") || !strings.HasSuffix(svg, "</svg>") {
		t.Fatal("not an SVG document")
	}
	if strings.Count(svg, "<path") != 60 {
		t.Errorf("%d paths want 60", strings.Count(svg, "<path"))
	}
	curved := RenderSVG(tab.X, km.Assign, 4, RenderOptions{UseEnergy: true, Energy: DefaultEnergyParams()})
	if !strings.Contains(curved, " Q") {
		t.Error("energy rendering should emit Bézier segments")
	}
	empty := RenderSVG(nil, nil, 0, RenderOptions{})
	if !strings.HasSuffix(empty, "</svg>") {
		t.Error("empty render")
	}
}
