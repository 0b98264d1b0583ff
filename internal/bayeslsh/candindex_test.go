package bayeslsh

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"plasmahd/internal/dataset"
	"plasmahd/internal/vec"
)

// oldCandidateRows replays the pre-index candidate generation — the
// per-probe incremental inverted index Search used to rebuild every time —
// and returns each row's candidates in generation order. The persistent
// CSR index must reproduce this bit-for-bit.
func oldCandidateRows(ds *vec.Dataset, frac float64) [][]candidate {
	maxDF := int(resolveMaxDF(ds.Dim, ds.N(), int64(ds.Nnz()), frac))
	postings := make(map[int32][]int32, ds.Dim)
	df := make(map[int32]int, ds.Dim)
	mark := make([]int32, ds.N())
	for i := range mark {
		mark[i] = -1
	}
	out := make([][]candidate, ds.N())
	for i := 0; i < ds.N(); i++ {
		row := ds.Rows[i]
		for _, ix := range row.Indices {
			if df[ix] > maxDF {
				continue
			}
			for _, j := range postings[ix] {
				if mark[j] != int32(i) {
					mark[j] = int32(i)
					out[i] = append(out[i], candidate{j: j, i: int32(i)})
				}
			}
		}
		for _, ix := range row.Indices {
			df[ix]++
			if df[ix] <= maxDF {
				postings[ix] = append(postings[ix], int32(i))
			}
		}
	}
	return out
}

// TestCandIndexMatchesIncrementalBuild pins the tentpole equivalence: for
// sparse data under the stop-word cap, for dense data with the cap
// disabled, and for a tiny cap that actually truncates postings, the
// persistent index generates exactly the candidates (same pairs, same
// order) the old per-probe build did.
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
			sc := &probeScratch{seen: make([]int64, tc.ds.N())}
			for i := 0; i < tc.ds.N(); i++ {
				got, _ := idx.appendRow(int32(i), tc.ds.Rows[i].Indices, sc, nil)
				if len(got) == 0 && len(want[i]) == 0 {
					continue
				}
				if !reflect.DeepEqual(got, want[i]) {
					t.Fatalf("row %d: index candidates %v, incremental build %v", i, got, want[i])
				}
			}
		})
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
			if !reflect.DeepEqual(serial.minSigs, parallel.minSigs) {
				t.Error("minhash signatures differ between 1 and 8 sketch workers")
			}
			if !reflect.DeepEqual(serial.srpSigs, parallel.srpSigs) {
				t.Error("SRP signatures differ between 1 and 8 sketch workers")
			}
		})
	}
}
