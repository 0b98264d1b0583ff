package bayeslsh

import (
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
)

// checkRangeOrder asserts the Range contract on s: pairs come in ascending
// (larger row, smaller row) order, and Len is the number of pairs visited.
func checkRangeOrder(t *testing.T, what string, s *PairStore) {
	t.Helper()
	visits, prevI, prevJ := 0, int32(-1), int32(-1)
	s.Range(func(key uint64, _ PairState) bool {
		j, i := UnpackKey(key)
		if i < prevI || (i == prevI && j <= prevJ) {
			t.Errorf("%s: pair (%d,%d) visited after (%d,%d)", what, j, i, prevJ, prevI)
			return false
		}
		prevI, prevJ = i, j
		visits++
		return true
	})
	if visits != s.Len() {
		t.Errorf("%s: Range visited %d pairs, Len = %d", what, visits, s.Len())
	}
}

// TestPairStoreRangeOrder pins the order Range promises and the count Len
// keeps: for a store filled by Update in random order, including repeated
// keys, and for the store a probe ladder leaves.
func TestPairStoreRangeOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	s := NewPairStore()
	distinct := map[uint64]bool{}
	for n := 0; n < 2000; n++ {
		i := int32(1 + rng.Intn(300))
		key := PairKey(int32(rng.Intn(int(i))), i)
		s.Update(key, PairState{M: int32(rng.Intn(32)), N: 32})
		distinct[key] = true
	}
	if s.Len() != len(distinct) {
		t.Errorf("Len = %d after %d distinct keys", s.Len(), len(distinct))
	}
	checkRangeOrder(t, "random updates", s)

	ds := snapDataset(60)
	c := NewCache(ds, DefaultParams(), 1)
	for _, th := range []float64{0.9, 0.5} {
		mustSearch(t, ds, th, c)
	}
	checkRangeOrder(t, "probed", c.Pairs)

	// An early stop ends the visit at once.
	visits := 0
	c.Pairs.Range(func(uint64, PairState) bool { visits++; return visits < 3 })
	if visits != 3 {
		t.Errorf("Range went on for %d visits after f returned false at 3", visits)
	}
}

// TestWriteRowMerges pins writeRow's merge: new pairs, ascending like the
// candidates, interleave with the run's old ones in one pass; an existing
// pair keeps the deeper state; a cache hit writes nothing; and after an
// insert the band is the candidates' own when the run is exactly them, and
// cleared when the run holds another pair too.
func TestWriteRowMerges(t *testing.T) {
	s := NewPairStore()
	for _, j := range []int32{2, 5, 9} {
		s.Update(PairKey(j, 20), PairState{M: 1, N: 32})
	}
	r := s.loaded()[20]
	r.band.Store(band{lo: 1, hi: 2}.pack())
	candsOf := func(js ...int32) ([]candidate, []candOutcome) {
		cands, outs := make([]candidate, len(js)), make([]candOutcome, len(js))
		for x, j := range js {
			cands[x], outs[x].ps = candidate{j: j, i: 20}, PairState{M: j, N: 64}
		}
		return cands, outs
	}
	cands, outs := candsOf(0, 1, 3, 5, 7, 9, 10, 12)
	outs[5].cacheHit = true // 9 keeps its stored state
	b := band{lo: 3, hi: 7}
	s.writeRow(r, cands, outs, b)
	want := []int32{0, 1, 2, 3, 5, 7, 9, 10, 12}
	if !slices.Equal(r.js, want) || s.Len() != len(want) {
		t.Fatalf("run %v (Len %d), want %v", r.js, s.Len(), want)
	}
	for k, j := range r.js {
		wantPS := PairState{M: j, N: 64}
		if j == 2 || j == 9 {
			wantPS = PairState{M: 1, N: 32}
		}
		if r.st[k] != wantPS {
			t.Errorf("pair (%d, 20): state %+v, want %+v", j, r.st[k], wantPS)
		}
	}
	if got := unpackBand(r.band.Load()); got != (band{}) {
		t.Errorf("run holds a non-candidate pair, band %+v", got)
	}

	// Every candidate, and nothing else: the band is recorded.
	cands, outs = candsOf(append(want, 15)...)
	s.writeRow(r, cands, outs, b)
	if got := unpackBand(r.band.Load()); got != b {
		t.Errorf("run is exactly the candidates, band %+v, want %+v", got, b)
	}
}

// TestProbeRacesDirectoryGrowth runs two probers on ever-larger dataset
// views while AppendRows lands batches between their probes, so the pair
// store's row directory is replaced by one probe under another that is
// reading and writing runs of the old one, and a reader walks the store
// throughout. Under -race this is the check that a run outlives its
// directory; after the race the store keeps the Range contract and a
// full-view probe returns what a fresh cache does.
func TestProbeRacesDirectoryGrowth(t *testing.T) {
	forceParallel(t)
	full := snapDataset(120)
	p := DefaultParams()
	p.Workers = 3
	c := NewCache(prefixOf(full, 5), p, 7)
	thresholds := []float64{0.9, 0.7, 0.5}

	var done atomic.Bool
	var probes atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := w; !done.Load(); k++ {
				view := prefixOf(full, c.Rows())
				if _, err := SearchWorkers(view, thresholds[k%len(thresholds)], c, nil, 0); err != nil {
					t.Error(err)
					done.Store(true)
					return
				}
				probes.Add(1)
			}
		}(w)
	}
	wg.Add(1)
	go func() { // reader: whole-store walks while the directory grows
		defer wg.Done()
		for !done.Load() {
			c.Pairs.Range(func(key uint64, ps PairState) bool { return ps.M <= ps.N })
			_ = c.Pairs.Len()
		}
	}()
	// Appender: 5 → 120 rows in growing batches, each once both probers
	// have moved on, so every batch lands while probes are in flight.
	for at, sz := 5, 1; at < full.N() && !done.Load(); at, sz = at+sz, sz+2 {
		for seen := probes.Load(); probes.Load() < seen+2 && !done.Load(); {
			runtime.Gosched()
		}
		if _, err := c.AppendRows(full.Rows[at:min(at+sz, full.N())]); err != nil {
			t.Error(err)
			break
		}
	}
	done.Store(true)
	wg.Wait()

	checkRangeOrder(t, "after the race", c.Pairs)
	fresh := NewCache(full, p, 7)
	for _, th := range thresholds {
		want, got := mustSearch(t, full, th, fresh), mustSearch(t, full, th, c)
		if len(got.Pairs) != len(want.Pairs) {
			t.Fatalf("t=%v: %d pairs after the race, %d fresh", th, len(got.Pairs), len(want.Pairs))
		}
		for k := range want.Pairs {
			if got.Pairs[k] != want.Pairs[k] {
				t.Fatalf("t=%v pair %d: %+v after the race, %+v fresh", th, k, got.Pairs[k], want.Pairs[k])
			}
		}
	}
}
