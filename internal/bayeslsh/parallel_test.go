package bayeslsh

import (
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"plasmahd/internal/dataset"
	"plasmahd/internal/vec"
)

// searchSequence runs a probe sequence on a fresh cache with the given
// worker count and returns the per-probe results.
func searchSequence(t *testing.T, ds *vec.Dataset, workers int, thresholds []float64) []*Result {
	t.Helper()
	p := DefaultParams()
	p.Workers = workers
	c := NewCache(ds, p, 42)
	out := make([]*Result, len(thresholds))
	for i, th := range thresholds {
		res, err := Search(ds, th, c, nil)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = res
	}
	return out
}

// forceParallel runs the rest of the test under GOMAXPROCS(4), so worker
// pools truly interleave and a 1-CPU container cannot hide a result that
// depends on the schedule.
func forceParallel(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// TestSearchWorkersDeterminism is the tentpole contract: a probe sequence
// must return byte-identical pair sets, identical cost counters, and
// identical accuracy against Exact whether it runs on 1 worker or 8. The
// descending sequence exercises the cache-resume paths (cache hits, pruned
// pairs extended) under batching.
func TestSearchWorkersDeterminism(t *testing.T) {
	forceParallel(t)
	wine, err := dataset.NewTable("wine", 1)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	cases := []struct {
		name       string
		ds         *vec.Dataset
		thresholds []float64
	}{
		{"wine-cosine", wine.Dataset(), []float64{0.9, 0.8, 0.7}},
		{"random-jaccard", randomSparseDS(rng, 150, 60), []float64{0.5, 0.3}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			serial := searchSequence(t, tc.ds, 1, tc.thresholds)
			parallel := searchSequence(t, tc.ds, 8, tc.thresholds)
			for i, th := range tc.thresholds {
				a, b := serial[i], parallel[i]
				if len(a.Pairs) != len(b.Pairs) {
					t.Fatalf("t=%v: %d pairs on 1 worker, %d on 8", th, len(a.Pairs), len(b.Pairs))
				}
				for k := range a.Pairs {
					if a.Pairs[k] != b.Pairs[k] {
						t.Fatalf("t=%v pair %d: %+v vs %+v", th, k, a.Pairs[k], b.Pairs[k])
					}
				}
				if a.Candidates != b.Candidates || a.Pruned != b.Pruned ||
					a.CacheHits != b.CacheHits || a.HashesCompared != b.HashesCompared ||
					a.RowsWalked != b.RowsWalked {
					t.Errorf("t=%v counters differ: %+v vs %+v", th, a, b)
				}
				truth := Exact(tc.ds, th)
				r1, p1 := RecallPrecision(a.Pairs, truth)
				r8, p8 := RecallPrecision(b.Pairs, truth)
				if r1 != r8 || p1 != p8 {
					t.Errorf("t=%v recall/precision differ: %v/%v vs %v/%v", th, r1, p1, r8, p8)
				}
			}
		})
	}
}

// TestSearchProgressParallel checks the per-row progress contract survives
// parallel evaluation: one call per row, rows in order, pair counts
// nondecreasing, identical to the serial trace.
func TestSearchProgressParallel(t *testing.T) {
	forceParallel(t)
	tab, err := dataset.NewTable("wine", 1)
	if err != nil {
		t.Fatal(err)
	}
	ds := tab.Dataset()
	trace := func(workers int) []int {
		p := DefaultParams()
		p.Workers = workers
		c := NewCache(ds, p, 42)
		var pairs []int
		lastRow := 0
		_, err := Search(ds, 0.8, c, func(done, total, above int) {
			if done != lastRow+1 {
				t.Fatalf("rows must advance by one: %d after %d", done, lastRow)
			}
			lastRow = done
			pairs = append(pairs, above)
		})
		if err != nil {
			t.Fatal(err)
		}
		if lastRow != ds.N() {
			t.Fatalf("progress stopped at row %d of %d", lastRow, ds.N())
		}
		return pairs
	}
	serial, parallel := trace(1), trace(8)
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Fatalf("row %d: %d pairs serial vs %d parallel", i+1, serial[i], parallel[i])
		}
	}
}

// TestClampWorkers pins the ceiling on worker counts: positive counts up to
// maxWorkers stand, and larger ones run maxWorkers, up to the largest int.
// MaxInt/1024 + 1 is the smallest count whose batch size, 1024 candidates a
// worker, overflowed before the clamp.
func TestClampWorkers(t *testing.T) {
	for _, tc := range []struct{ in, want int }{
		{1, 1}, {64, 64}, {maxWorkers, maxWorkers}, {maxWorkers + 1, maxWorkers},
		{1_000_000_000, maxWorkers}, {math.MaxInt/1024 + 1, maxWorkers}, {math.MaxInt, maxWorkers},
	} {
		if got := clampWorkers(tc.in); got != tc.want {
			t.Errorf("clampWorkers(%d) = %d, want %d", tc.in, got, tc.want)
		}
		if got := (Params{Workers: tc.in}).WorkerCount(); got != tc.want {
			t.Errorf("Params{Workers: %d}.WorkerCount() = %d, want %d", tc.in, got, tc.want)
		}
	}
	if got := (Params{}).WorkerCount(); got < 1 || got > maxWorkers {
		t.Errorf("Params{}.WorkerCount() = %d, want 1..%d", got, maxWorkers)
	}
}

// TestHugeWorkerOverride probes with worker counts far past the ceiling — as
// a create request's params and as a probe's override — and must answer
// exactly as one worker does. The dataset has 16 rows, so however the count
// is resolved no probe starts more than 16 goroutines.
func TestHugeWorkerOverride(t *testing.T) {
	ds := snapDataset(16)
	thresholds := []float64{0.8, 0.6, 0.8}
	want := probeAll(t, ds, NewCache(ds, DefaultParams(), 9), thresholds, 1)
	for _, huge := range []int{1_000_000_000, math.MaxInt/1024 + 1, math.MaxInt} {
		p := DefaultParams()
		p.Workers = huge
		sameResults(t, want, probeAll(t, ds, NewCache(ds, p, 9), thresholds, 0))
		sameResults(t, want, probeAll(t, ds, NewCache(ds, DefaultParams(), 9), thresholds, huge))
	}
}

// TestConcurrentSearchSharedCache hammers one knowledge cache with
// overlapping probes at interleaved thresholds — the concurrent-session
// scenario the PairStore's per-row locks exist for. Run under -race this is the
// engine-level data-race check; the assertions pin the monotone-evidence
// invariants.
func TestConcurrentSearchSharedCache(t *testing.T) {
	tab, err := dataset.NewTable("wine", 1)
	if err != nil {
		t.Fatal(err)
	}
	ds := tab.Dataset()
	p := DefaultParams()
	p.Workers = 2
	c := NewCache(ds, p, 42)

	thresholds := []float64{0.95, 0.9, 0.85, 0.8, 0.75, 0.7}
	results := make([]*Result, len(thresholds))
	var wg sync.WaitGroup
	for i, th := range thresholds {
		wg.Add(1)
		go func(i int, th float64) {
			defer wg.Done()
			res, err := Search(ds, th, c, nil)
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = res
		}(i, th)
	}
	wg.Wait()

	for i, res := range results {
		if res == nil {
			continue
		}
		for k, pr := range res.Pairs {
			if pr.Est < thresholds[i] {
				t.Errorf("t=%v returned pair with estimate %v", thresholds[i], pr.Est)
			}
			if k > 0 && !(res.Pairs[k-1].I < pr.I ||
				(res.Pairs[k-1].I == pr.I && res.Pairs[k-1].J < pr.J)) {
				t.Errorf("t=%v pairs not in sorted order", thresholds[i])
			}
		}
	}
	c.Pairs.Range(func(key uint64, ps PairState) bool {
		if ps.M > ps.N || int(ps.N) > p.MaxHashes {
			t.Errorf("invalid pair state %+v", ps)
		}
		i, j := UnpackKey(key)
		if i >= j {
			t.Errorf("key not ordered: (%d,%d)", i, j)
		}
		return true
	})
	// Evidence must be complete enough that a follow-up probe is accurate.
	res, err := Search(ds, 0.8, c, nil)
	if err != nil {
		t.Fatal(err)
	}
	clearlyAbove := Exact(ds, 0.8+p.Delta)
	if recall, _ := RecallPrecision(res.Pairs, clearlyAbove); recall < 0.95 {
		t.Errorf("post-concurrency probe recall %v", recall)
	}
}

func TestPairStoreMonotoneUpdate(t *testing.T) {
	s := NewPairStore()
	key := PairKey(3, 7)
	if _, ok := s.Get(key); ok {
		t.Fatal("empty store should miss")
	}
	s.Update(key, PairState{M: 10, N: 32})
	s.Update(key, PairState{M: 40, N: 64})
	if ps, _ := s.Get(key); ps.N != 64 {
		t.Errorf("deeper evidence should win: %+v", ps)
	}
	// A shallower racing write must not regress the stored evidence.
	s.Update(key, PairState{M: 10, N: 32})
	if ps, _ := s.Get(key); ps.N != 64 {
		t.Errorf("shallow write regressed evidence: %+v", ps)
	}
	s.Update(key, PairState{M: 50, N: 64, Done: true})
	s.Update(key, PairState{M: 60, N: 128})
	if ps, _ := s.Get(key); !ps.Done {
		t.Errorf("done state lost to undone deeper state: %+v", ps)
	}
	s.Update(key, PairState{M: 50, N: 64, Done: true, HasExact: true, Exact: 0.8})
	if ps, _ := s.Get(key); !ps.HasExact {
		t.Errorf("exact state lost: %+v", ps)
	}
	if s.Len() != 1 {
		t.Errorf("Len = %d", s.Len())
	}
	seen := 0
	s.Range(func(k uint64, ps PairState) bool {
		if k != key {
			t.Errorf("unexpected key %d", k)
		}
		seen++
		return true
	})
	if seen != 1 {
		t.Errorf("Range visited %d", seen)
	}
}

func TestPairStoreConcurrent(t *testing.T) {
	s := NewPairStore()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := int32(0); i < 500; i++ {
				key := PairKey(i, i+1+int32(g%3))
				s.Update(key, PairState{M: i % 32, N: 32 + int32(g)})
				s.Get(key)
			}
			s.Range(func(uint64, PairState) bool { return true })
		}(g)
	}
	wg.Wait()
	if s.Len() == 0 {
		t.Error("store empty after concurrent updates")
	}
}

// benchDataset builds the bench-scale corpus once: a seeded sparse Jaccard
// dataset big enough that candidate evaluation dominates the probe.
var benchDataset = sync.OnceValue(func() *vec.Dataset {
	rng := rand.New(rand.NewSource(7))
	d := &vec.Dataset{Name: "bench", Dim: 400, Measure: vec.JaccardSim}
	for i := 0; i < 1500; i++ {
		m := map[int32]float64{}
		for k := 0; k < 8+rng.Intn(8); k++ {
			m[int32(rng.Intn(400))] = 1
		}
		d.Rows = append(d.Rows, vec.FromMap(m))
	}
	return d
})

// benchmarkSearchWorkers measures one cold probe per iteration at the given
// worker count; sketching is excluded so the number isolates the
// prune/estimate hot path the worker pool shards.
func benchmarkSearchWorkers(b *testing.B, workers int) {
	ds := benchDataset()
	p := DefaultParams()
	p.Workers = workers
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		c := NewCache(ds, p, 7)
		b.StartTimer()
		if _, err := Search(ds, 0.2, c, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSearchWorkers1(b *testing.B) { benchmarkSearchWorkers(b, 1) }
func BenchmarkSearchWorkers4(b *testing.B) { benchmarkSearchWorkers(b, 4) }
func BenchmarkSearchWorkers8(b *testing.B) { benchmarkSearchWorkers(b, 8) }
