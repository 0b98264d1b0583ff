package vec

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func sv(pairs ...float64) Sparse {
	var s Sparse
	for i := 0; i+1 < len(pairs); i += 2 {
		s.Indices = append(s.Indices, int32(pairs[i]))
		s.Values = append(s.Values, pairs[i+1])
	}
	return s
}

func TestDotCosine(t *testing.T) {
	a := sv(0, 1, 2, 2, 5, 3)
	b := sv(2, 4, 3, 1, 5, 1)
	if got := Dot(a, b); got != 2*4+3*1 {
		t.Errorf("dot = %v", got)
	}
	if got := Cosine(a, a); math.Abs(got-1) > 1e-12 {
		t.Errorf("self cosine = %v", got)
	}
	if got := Cosine(Sparse{}, a); got != 0 {
		t.Errorf("zero-vector cosine = %v", got)
	}
	// Orthogonal vectors.
	if got := Cosine(sv(0, 1), sv(1, 1)); got != 0 {
		t.Errorf("orthogonal cosine = %v", got)
	}
}

func TestJaccard(t *testing.T) {
	a := sv(0, 1, 1, 1, 2, 1)
	b := sv(1, 9, 2, 9, 3, 9, 4, 9)
	// intersection {1,2}=2, union {0..4}=5
	if got := Jaccard(a, b); math.Abs(got-0.4) > 1e-12 {
		t.Errorf("jaccard = %v", got)
	}
	if got := Jaccard(a, a); got != 1 {
		t.Errorf("self jaccard = %v", got)
	}
	if got := Jaccard(Sparse{}, Sparse{}); got != 0 {
		t.Errorf("empty jaccard = %v", got)
	}
}

func TestNormalize(t *testing.T) {
	a := sv(0, 3, 1, 4)
	a.Normalize()
	if math.Abs(a.Norm()-1) > 1e-12 {
		t.Errorf("norm after normalize = %v", a.Norm())
	}
	z := Sparse{}
	z.Normalize() // must not panic
}

func TestFromDenseFromMap(t *testing.T) {
	s := FromDense([]float64{0, 1.5, 0, -2})
	if s.Len() != 2 || s.Indices[0] != 1 || s.Indices[1] != 3 {
		t.Errorf("FromDense = %+v", s)
	}
	m := FromMap(map[int32]float64{7: 1, 2: 3, 5: -1})
	if m.Len() != 3 || m.Indices[0] != 2 || m.Indices[1] != 5 || m.Indices[2] != 7 {
		t.Errorf("FromMap indices = %v", m.Indices)
	}
	if m.Values[0] != 3 || m.Values[2] != 1 {
		t.Errorf("FromMap values = %v", m.Values)
	}
}

func TestMeasureString(t *testing.T) {
	if CosineSim.String() != "cosine" || JaccardSim.String() != "jaccard" {
		t.Error("measure names")
	}
	if Measure(9).String() == "" {
		t.Error("unknown measure should still format")
	}
}

func TestDatasetStats(t *testing.T) {
	d := FromDenseMatrix("toy", [][]float64{{1, 0, 2}, {0, 0, 3}}, CosineSim)
	if d.N() != 2 || d.Dim != 3 {
		t.Errorf("N=%d Dim=%d", d.N(), d.Dim)
	}
	if d.Nnz() != 3 {
		t.Errorf("nnz = %d", d.Nnz())
	}
	if math.Abs(d.AvgLen()-1.5) > 1e-12 {
		t.Errorf("avglen = %v", d.AvgLen())
	}
	want := Cosine(d.Rows[0], d.Rows[1])
	if got := d.Similarity(0, 1); got != want {
		t.Errorf("similarity = %v want %v", got, want)
	}
	s := d.Sample([]int{1})
	if s.N() != 1 || s.Rows[0].Len() != 1 {
		t.Errorf("sample = %+v", s)
	}
}

func TestTFIDF(t *testing.T) {
	// Token 0 appears in both docs (idf = ln(1) = 0 -> weight 0);
	// token 1 appears in one (idf = ln 2).
	d := &Dataset{Dim: 2, Rows: []Sparse{sv(0, 1, 1, 1), sv(0, 1)}}
	d.TFIDF()
	if d.Rows[0].Values[0] != 0 {
		t.Errorf("common token weight = %v", d.Rows[0].Values[0])
	}
	if math.Abs(d.Rows[0].Values[1]-math.Log(2)) > 1e-12 {
		t.Errorf("rare token weight = %v", d.Rows[0].Values[1])
	}
}

func TestNormalizeRowsMakesCosineADot(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	d := &Dataset{Dim: 20}
	for i := 0; i < 10; i++ {
		m := map[int32]float64{}
		for j := 0; j < 5; j++ {
			m[int32(rng.Intn(20))] = rng.Float64() + 0.1
		}
		d.Rows = append(d.Rows, FromMap(m))
	}
	want := make([][]float64, 10)
	for i := range want {
		want[i] = make([]float64, 10)
		for j := range want[i] {
			want[i][j] = Cosine(d.Rows[i], d.Rows[j])
		}
	}
	d.NormalizeRows()
	for i := 0; i < 10; i++ {
		for j := 0; j < 10; j++ {
			if math.Abs(Dot(d.Rows[i], d.Rows[j])-want[i][j]) > 1e-9 {
				t.Fatalf("dot after normalize != cosine before at (%d,%d)", i, j)
			}
		}
	}
}

// TestNormalizeRowsDropsJaccardValues: under Jaccard the row step keeps the
// index sets and drops the values, whatever they were, and the similarities
// do not move.
func TestNormalizeRowsDropsJaccardValues(t *testing.T) {
	d := FromDenseMatrix("sets", [][]float64{{1, 0, 2, 0}, {3, 1, 0, 0}, {0, 1, 1, 5}}, JaccardSim)
	want := []float64{d.Similarity(0, 1), d.Similarity(0, 2), d.Similarity(1, 2)}
	d.NormalizeRows()
	for i, r := range d.Rows {
		if r.Values != nil || len(r.Indices) != 2+i/2 {
			t.Fatalf("row %d after NormalizeRows: %+v, want its indices and nil values", i, r)
		}
	}
	if got := []float64{d.Similarity(0, 1), d.Similarity(0, 2), d.Similarity(1, 2)}; !slices.Equal(got, want) {
		t.Fatalf("similarities %v, want %v", got, want)
	}
}

func randSparse(rng *rand.Rand, dim, nnz int) Sparse {
	m := map[int32]float64{}
	for len(m) < nnz {
		m[int32(rng.Intn(dim))] = rng.Float64()*2 - 1
	}
	return FromMap(m)
}

func TestSimilarityBoundsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randSparse(rng, 30, 1+rng.Intn(10))
		b := randSparse(rng, 30, 1+rng.Intn(10))
		c := Cosine(a, b)
		j := Jaccard(a, b)
		return c >= -1-1e-12 && c <= 1+1e-12 && j >= 0 && j <= 1 &&
			math.Abs(Cosine(a, b)-Cosine(b, a)) < 1e-12 &&
			Jaccard(a, b) == Jaccard(b, a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestJaccardTriangleIneqProperty(t *testing.T) {
	// Jaccard distance (1 - J) is a metric; verify the triangle inequality.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randSparse(rng, 12, 1+rng.Intn(6))
		b := randSparse(rng, 12, 1+rng.Intn(6))
		c := randSparse(rng, 12, 1+rng.Intn(6))
		dab := 1 - Jaccard(a, b)
		dbc := 1 - Jaccard(b, c)
		dac := 1 - Jaccard(a, c)
		return dac <= dab+dbc+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
