package gen

import (
	"bytes"
	"testing"

	"plasmahd/internal/bayeslsh"
	"plasmahd/internal/vec"
)

// Small-scale versions of the shapes bench/scripts.go fixes; the properties
// pinned here are the ones the workloads rely on.
var (
	smallZipf = ZipfCosine{Rows: 300, Dim: 6000, MinNnz: 30, MaxNnz: 60, ZipfS: 1.25,
		Communities: 40, Cohesion: 0.85, BlockZipfS: 1.3}
	smallSets = LongsetJaccard{Rows: 600, Dim: 300_000, MinNnz: 100, MaxNnz: 120,
		GroupFrac: 0.3, GroupMin: 2, GroupMax: 6, KeepLo: 0.85, KeepHi: 0.98}
)

func TestSameSeedSameBytes(t *testing.T) {
	for name, generate := range map[string]func(int64) *Data{
		"zipf-cosine":     smallZipf.Generate,
		"longset-jaccard": smallSets.Generate,
	} {
		a, b, c := generate(7), generate(7), generate(8)
		if a.Name != name {
			t.Errorf("%s: generated data is named %q", name, a.Name)
		}
		n := len(a.Rows)
		if !bytes.Equal(a.CreateBody(n, 3), b.CreateBody(n, 3)) {
			t.Errorf("%s: the same seed gave different upload bytes", name)
		}
		if !bytes.Equal(a.AppendBody(n/2, n), b.AppendBody(n/2, n)) {
			t.Errorf("%s: the same seed gave different append bytes", name)
		}
		if bytes.Equal(a.CreateBody(n, 3), c.CreateBody(n, 3)) {
			t.Errorf("%s: different seeds gave identical upload bytes", name)
		}
	}
}

// shape probes the generated data once with the engine and reports what the
// workloads are calibrated on.
func shape(t *testing.T, d *Data) (nnzPerRow, candidatesPerRow, density float64, pairsAt map[float64]int) {
	t.Helper()
	ds := d.Dataset(0, len(d.Rows))
	for i, r := range ds.Rows {
		for k := 1; k < len(r.Indices); k++ {
			if r.Indices[k-1] >= r.Indices[k] {
				t.Fatalf("row %d: indices not strictly increasing", i)
			}
		}
		if len(r.Indices) == 0 || int(r.Indices[len(r.Indices)-1]) >= d.Dim {
			t.Fatalf("row %d: empty or out of dimension", i)
		}
	}
	cache := bayeslsh.NewCache(ds, bayeslsh.DefaultParams(), 1)
	res, err := bayeslsh.Search(ds, 0.9, cache, nil)
	if err != nil {
		t.Fatal(err)
	}
	n := float64(ds.N())
	pairsAt = make(map[float64]int)
	for _, th := range []float64{0.6, 0.7, 0.8, 0.9} {
		pairsAt[th] = len(bayeslsh.Exact(ds, th))
	}
	return ds.AvgLen(), float64(res.Candidates) / n, float64(res.Candidates) / (n * (n - 1) / 2), pairsAt
}

func TestZipfCosineShape(t *testing.T) {
	d := smallZipf.Generate(11)
	if d.Measure != vec.CosineSim {
		t.Fatalf("measure %v", d.Measure)
	}
	nnz, _, density, pairsAt := shape(t, d)
	if nnz < 15 || nnz > 35 {
		t.Errorf("distinct tokens per row = %.1f, want about 23", nnz)
	}
	// The head makes most row pairs candidates: about 60 %.
	if density < 0.45 || density > 0.75 {
		t.Errorf("candidate density = %.2f of all row pairs, want about 0.6", density)
	}
	if pairsAt[0.6] < 200 || pairsAt[0.8] < 20 || pairsAt[0.6] <= pairsAt[0.9] {
		t.Errorf("similar pairs by threshold = %v, want hundreds at 0.6 thinning towards 0.9", pairsAt)
	}
}

func TestLongsetJaccardShape(t *testing.T) {
	d := smallSets.Generate(11)
	if d.Measure != vec.JaccardSim {
		t.Fatalf("measure %v", d.Measure)
	}
	nnz, perRow, _, pairsAt := shape(t, d)
	if nnz < 100 || nnz > 120 {
		t.Errorf("tokens per row = %.1f, want 100-120", nnz)
	}
	// No head: chance candidates stay few.
	if perRow > 30 {
		t.Errorf("%.1f candidates per row, want at most 30", perRow)
	}
	if pairsAt[0.6] < 50 || pairsAt[0.8] < 5 || pairsAt[0.6] <= pairsAt[0.9] {
		t.Errorf("similar pairs by threshold = %v, want planted near-duplicates from 0.6 to 0.9", pairsAt)
	}
}
