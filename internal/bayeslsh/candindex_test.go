package bayeslsh

import (
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"plasmahd/bench/gen"
	"plasmahd/internal/dataset"
	"plasmahd/internal/vec"
)

// oldCandidateRows replays the pre-index candidate generation — the
// per-probe incremental inverted index Search used to rebuild every time —
// and returns each row's candidates j, sorted. The persistent CSR index must
// reproduce this exactly.
func oldCandidateRows(ds *vec.Dataset, frac float64) [][]int32 {
	maxDF := int(resolveMaxDF(ds.Dim, ds.N(), int64(ds.Nnz()), frac))
	postings := make(map[int32][]int32, ds.Dim)
	df := make(map[int32]int, ds.Dim)
	mark := make([]int32, ds.N())
	for i := range mark {
		mark[i] = -1
	}
	out := make([][]int32, ds.N())
	for i := 0; i < ds.N(); i++ {
		row := ds.Rows[i]
		for _, ix := range row.Indices {
			if df[ix] > maxDF {
				continue
			}
			for _, j := range postings[ix] {
				if mark[j] != int32(i) {
					mark[j] = int32(i)
					out[i] = append(out[i], j)
				}
			}
		}
		for _, ix := range row.Indices {
			df[ix]++
			if df[ix] <= maxDF {
				postings[ix] = append(postings[ix], int32(i))
			}
		}
		slices.Sort(out[i])
	}
	return out
}

// TestCandIndexMatchesIncrementalBuild pins the tentpole equivalence: for
// sparse data under the stop-word cap, for dense data with the cap
// disabled, and for a tiny cap that actually truncates postings, the
// persistent index generates exactly the candidates the old per-probe build
// did, in ascending order.
func TestCandIndexMatchesIncrementalBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tab, err := dataset.NewTable("wine", 1)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		ds   *vec.Dataset
		frac float64
	}{
		{"sparse-default-cap", randomSparseDS(rng, 200, 50), 0.5},
		{"sparse-tiny-cap", randomSparseDS(rng, 200, 50), 0.02},
		{"dense-cap-disabled", tab.Dataset(), 0.5},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want := oldCandidateRows(tc.ds, tc.frac)
			idx := buildCandIndex(tc.ds.Dim, tc.ds.Rows, tc.frac)
			sc := &probeScratch{bitmap: make([]uint64, (tc.ds.N()+63)/64)}
			for i := 0; i < tc.ds.N(); i++ {
				got, _ := idx.appendRow(int32(i), tc.ds.Rows[i].Indices, sc, nil)
				if len(got) == 0 && len(want[i]) == 0 {
					continue
				}
				if !slices.Equal(got, want[i]) {
					t.Fatalf("row %d: index candidates %v, incremental build %v", i, got, want[i])
				}
			}
		})
	}
}

// TestAppendRowOrderedAtWordBoundaries pins ordered generation through the
// candidate bitmap: row 200 reaches rows 0, 63, 64, 127, 128 and 199, the
// first and last bits of the bitmap's first three words and the row just
// below it, row 64 through three features; every other row carries a
// feature of its own too, and row 5 nothing else. For every row, from one
// CSR build and from a build extended by a tail, appendRow returns the
// sorted brute-force candidates, each once, and leaves every bitmap word
// zero.
func TestAppendRowOrderedAtWordBoundaries(t *testing.T) {
	const n = 201
	ds := &vec.Dataset{Name: "words", Dim: 1000, Measure: vec.JaccardSim}
	// Generation visits feature 1 first, and it reaches 64, 127 and 199
	// before feature 2 reaches 0.
	shared := map[int32][]int32{0: {2}, 63: {3}, 64: {1, 2, 3}, 127: {1}, 128: {2}, 199: {1}, 200: {1, 2, 3}}
	for i := int32(0); i < n; i++ {
		m := map[int32]float64{int32(10 + i): 1}
		for _, f := range shared[i] {
			m[f] = 1
		}
		ds.Rows = append(ds.Rows, vec.FromMap(m))
	}
	want := oldCandidateRows(ds, 1)
	if got := want[200]; !slices.Equal(got, []int32{0, 63, 64, 127, 128, 199}) {
		t.Fatalf("vacuous corpus: row 200's brute-force candidates are %v", got)
	}
	if len(want[5]) != 0 {
		t.Fatalf("vacuous corpus: row 5 has candidates %v", want[5])
	}
	for _, layout := range []string{"csr", "csr+tail"} {
		ix := buildCandIndex(ds.Dim, ds.Rows, 1)
		if layout == "csr+tail" {
			ix = buildCandIndex(ds.Dim, ds.Rows[:100], 1).extend(ds.Dim, ds.Rows, n, 1)
		}
		sc := &probeScratch{bitmap: make([]uint64, (n+63)/64)}
		for i := int32(0); i < n; i++ {
			got, _ := ix.appendRow(i, ds.Rows[i].Indices, sc, nil)
			if !slices.Equal(got, want[i]) {
				t.Fatalf("%s row %d: candidates %v, want %v", layout, i, got, want[i])
			}
			for w, word := range sc.bitmap {
				if word != 0 {
					t.Fatalf("%s row %d: bitmap word %d is %#x after the row", layout, i, w, word)
				}
			}
		}
	}
}

// TestCandIndexExtendCopiesOnWrite pins that extend never writes into a
// tail list another index holds: one index extended twice, by two different
// batches, leaves itself and both extensions with the tails a single extend
// from the CSR build gives.
func TestCandIndexExtendCopiesOnWrite(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ds := randomSparseDS(rng, 200, 40)
	other := append(slices.Clone(ds.Rows[:150]), randomSparseDS(rng, 50, 40).Rows...)
	base := buildCandIndex(ds.Dim, ds.Rows[:100], 0.5)
	a := base.extend(ds.Dim, ds.Rows, 150, 0.5)
	b := a.extend(ds.Dim, ds.Rows, 200, 0.5)
	c := a.extend(ds.Dim, other, 200, 0.5)
	for _, tc := range []struct {
		name string
		ix   *candIndex
		rows []vec.Sparse
	}{{"a", a, ds.Rows[:150]}, {"b", b, ds.Rows}, {"c", c, other}} {
		want := base.extend(ds.Dim, tc.rows, len(tc.rows), 0.5)
		if len(tc.ix.tail) != len(want.tail) {
			t.Fatalf("%s: %d tail features, want %d", tc.name, len(tc.ix.tail), len(want.tail))
		}
		for f, rows := range want.tail {
			if !slices.Equal(tc.ix.tail[f], rows) {
				t.Fatalf("%s: feature %d tail %v, want %v", tc.name, f, tc.ix.tail[f], rows)
			}
		}
	}
}

// TestCandIndexBuiltOnceAndReused checks the index is built lazily on the
// first probe and shared by later and concurrent probes on the same cache.
func TestCandIndexBuiltOnceAndReused(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ds := randomSparseDS(rng, 150, 60)
	c := NewCache(ds, DefaultParams(), 42)
	if c.idx.Load() != nil {
		t.Fatal("index must not be built before the first probe")
	}
	if _, err := Search(ds, 0.5, c, nil); err != nil {
		t.Fatal(err)
	}
	first := c.idx.Load()
	if first == nil {
		t.Fatal("first probe must build the index")
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := Search(ds, 0.3, c, nil); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if c.idx.Load() != first {
		t.Error("later probes must reuse the first probe's index")
	}
}

// TestParallelSketchDeterminism is the parallel-sketching contract: NewCache
// must produce byte-identical minhash and SRP signatures whether it sketches
// on 1 worker or 8. Run under -race this also checks the SRP gaussian-row
// cache is safe for concurrent sketching.
func TestParallelSketchDeterminism(t *testing.T) {
	forceParallel(t)
	rng := rand.New(rand.NewSource(9))
	tab, err := dataset.NewTable("wine", 1)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		ds   *vec.Dataset
	}{
		{"jaccard-minhash", randomSparseDS(rng, 200, 80)},
		{"cosine-srp", tab.Dataset()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			build := func(workers int) *Cache {
				p := DefaultParams()
				p.Workers = workers
				return NewCache(tc.ds, p, 42)
			}
			serial, parallel := build(1), build(8)
			if !reflect.DeepEqual(serial.view.Load().minSigs, parallel.view.Load().minSigs) {
				t.Error("minhash signatures differ between 1 and 8 sketch workers")
			}
			if !reflect.DeepEqual(serial.view.Load().srpSigs, parallel.view.Load().srpSigs) {
				t.Error("SRP signatures differ between 1 and 8 sketch workers")
			}
		})
	}
}

// BenchmarkCandIndexExtend times growing the candidate index's tail as live
// ingest does: a CSR build over 2 500 rows in the onboard-long shape (100–120
// features a row over 1.25 M dimensions), then three 40-row extends, each
// from the index the previous one returned. Only the extends are timed.
func BenchmarkCandIndexExtend(b *testing.B) {
	const base, batch, batches = 2500, 40, 3
	ds := gen.LongsetJaccard{Rows: base + batch*batches, Dim: 1_250_000, MinNnz: 100, MaxNnz: 120,
		GroupFrac: 0.3, GroupMin: 2, GroupMax: 6, KeepLo: 0.85, KeepHi: 0.98}.Generate(1).Dataset(0, base+batch*batches)
	ix := buildCandIndex(ds.Dim, ds.Rows[:base], 0.5)
	b.ReportAllocs()
	for b.Loop() {
		next := ix
		for n := base + batch; n <= base+batch*batches; n += batch {
			next = next.extend(ds.Dim, ds.Rows, n, 0.5)
		}
	}
}
