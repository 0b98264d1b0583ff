package bayeslsh

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"plasmahd/internal/stats"
	"plasmahd/internal/vec"
)

// The invariants re-prune-first creates. A probe tests a pair's stored
// (N, M) against its own prune bound before it compares anything,
// and the bound is monotone in t, so the pair store is a function of the
// lowest threshold probed and nothing else: not the order of the probes, not
// their repeats, not the worker count, not whether they overlapped in time.

// storeBytes is the cache's snapshot with its history forgotten: equal
// bytes are equal rows, sketches, params and pair states, pair for pair.
func storeBytes(t *testing.T, c *Cache) []byte {
	t.Helper()
	forgetHistory(c)
	var buf bytes.Buffer
	if err := c.EncodeSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// forgetHistory zeroes what a quiescent cache records of how it reached its
// state rather than the state itself: the sketch time, the append count and
// the probe history.
func forgetHistory(c *Cache) {
	v := *c.view.Load()
	v.appends = 0
	c.view.Store(&v)
	c.SketchTime = 0
	c.history = probeHistory{}
}

func mustSearch(t *testing.T, ds *vec.Dataset, th float64, c *Cache) *Result {
	t.Helper()
	res, err := Search(ds, th, c, nil)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// containsPairs reports whether every pair of sub, estimate included, is in
// super.
func containsPairs(super, sub []Pair) bool {
	have := make(map[Pair]bool, len(super))
	for _, pr := range super {
		have[pr] = true
	}
	for _, pr := range sub {
		if !have[pr] {
			return false
		}
	}
	return true
}

// canonConfigs runs f over both measures × Lite on and off × the given
// worker counts, on corpora where the 0.95…0.6 ladder prunes, resumes and
// finishes pairs at every rung (100 rows of wine keep the suite quick under
// the race detector).
func canonConfigs(t *testing.T, workers []int, f func(t *testing.T, ds *vec.Dataset, p Params)) {
	for _, ds := range []*vec.Dataset{prefixOf(wineDS(t), 100), hdlssDataset(vec.JaccardSim)} {
		for _, lite := range []bool{true, false} {
			for _, w := range workers {
				p := DefaultParams()
				p.Lite, p.Workers = lite, w
				t.Run(fmt.Sprintf("%s/lite=%v/workers=%d", ds.Name, lite, w), func(t *testing.T) { f(t, ds, p) })
			}
		}
	}
}

var canonLadders = [][]float64{
	{0.9, 0.8, 0.7, 0.6, 0.8, 0.95, 0.6},
	{0.6, 0.9, 0.7},
}

// TestProbeHistoryInvariants walks shuffled ladders with repeats and checks
// after every probe what the store's canonical form implies:
// (iii) upward-free — a probe at or above an earlier threshold compares no
// hashes; (iv) cold or better — its pairs contain the cold answer at that
// threshold, and equal it when the threshold is the lowest so far;
// (ii) idempotent — an immediate repeat returns the same pairs, compares
// nothing and leaves the snapshot bytes unchanged; and at the end
// (i) canonical store — the snapshot bytes equal those one cold probe at the
// ladder's minimum leaves.
func TestProbeHistoryInvariants(t *testing.T) {
	forceParallel(t)
	canonConfigs(t, []int{1, 8}, func(t *testing.T, ds *vec.Dataset, p Params) {
		type coldProbe struct {
			res   *Result
			store []byte
		}
		colds := map[float64]coldProbe{}
		cold := func(th float64) coldProbe {
			if _, ok := colds[th]; !ok {
				c := NewCache(ds, p, 42)
				colds[th] = coldProbe{mustSearch(t, ds, th, c), storeBytes(t, c)}
			}
			return colds[th]
		}
		for _, ladder := range canonLadders {
			c := NewCache(ds, p, 42)
			lowest := 2.0
			for step, th := range ladder {
				what := fmt.Sprintf("ladder %v step %d (t=%v)", ladder, step, th)
				res := mustSearch(t, ds, th, c)
				generated := res.Candidates + res.CacheHits
				if want := cold(th).res.Candidates; generated != want {
					t.Fatalf("%s: %d candidates generated, cold probe %d", what, generated, want)
				}
				if th >= lowest && (res.HashesCompared != 0 || res.Candidates != 0 || res.Pruned != 0) {
					t.Errorf("%s: probe at or above an earlier threshold %v did work: %d hashes, %d candidates, %d pruned",
						what, lowest, res.HashesCompared, res.Candidates, res.Pruned)
				}
				if th <= lowest && !slices.Equal(res.Pairs, cold(th).res.Pairs) {
					t.Errorf("%s: lowest threshold so far returned %d pairs, cold probe %d",
						what, len(res.Pairs), len(cold(th).res.Pairs))
				}
				if !containsPairs(res.Pairs, cold(th).res.Pairs) {
					t.Errorf("%s: lost pairs of the cold answer (%d returned, cold %d)",
						what, len(res.Pairs), len(cold(th).res.Pairs))
				}
				lowest = min(lowest, th)

				before := storeBytes(t, c)
				again := mustSearch(t, ds, th, c)
				if !slices.Equal(again.Pairs, res.Pairs) {
					t.Errorf("%s: repeat returned %d pairs, first %d", what, len(again.Pairs), len(res.Pairs))
				}
				if again.HashesCompared != 0 || again.Candidates != 0 || again.Pruned != 0 || again.CacheHits != generated {
					t.Errorf("%s: repeat did work: %d hashes, %d candidates, %d pruned, %d of %d cache hits",
						what, again.HashesCompared, again.Candidates, again.Pruned, again.CacheHits, generated)
				}
				if !bytes.Equal(storeBytes(t, c), before) {
					t.Errorf("%s: repeat changed the store", what)
				}
			}
			if !bytes.Equal(storeBytes(t, c), cold(lowest).store) {
				t.Errorf("ladder %v: store differs from one cold probe at %v", ladder, lowest)
			}
		}
		// The ladder must have exercised what it claims to: pairs pruned,
		// pairs finished, and pruned pairs resumed by a lower rung.
		if hi, lo := cold(0.9).res, cold(0.6).res; hi.Pruned == 0 || len(lo.Pairs) == 0 || lo.HashesCompared <= hi.HashesCompared {
			t.Fatalf("vacuous corpus: cold 0.9 %+v, cold 0.6 %+v", hi, lo)
		}
	})
}

// TestConcurrentProbesLeaveCanonicalStore is (v): six goroutines, each
// probing the ladder in its own order on one shared cache, leave exactly the
// store of one cold probe at the minimum. Racing probes may each extend the
// same pair, but every extension is a prefix of the lowest probe's path and
// PairStore.Update keeps the deepest. Two of the goroutines probe through a
// view of the first three quarters of the rows, whose stop-word cap differs
// from the full view's, so runs are generated, walked and recorded under two
// caps at once; a smaller cap generates a subset of each row's candidates,
// so the store still ends as the full view's. `make race` runs this with the
// detector on.
func TestConcurrentProbesLeaveCanonicalStore(t *testing.T) {
	forceParallel(t)
	ladder := canonLadders[0]
	canonConfigs(t, []int{2}, func(t *testing.T, ds *vec.Dataset, p Params) {
		prefix := prefixOf(ds, ds.N()*3/4)
		capOf := func(v *vec.Dataset) int32 { return resolveMaxDF(v.Dim, v.N(), int64(v.Nnz()), p.MaxDFFrac) }
		if capOf(prefix) == capOf(ds) {
			t.Fatalf("both views have stop-word cap %d", capOf(ds))
		}
		c := NewCache(ds, p, 42)
		var wg sync.WaitGroup
		for g := 0; g < 6; g++ {
			view := ds
			if g%3 == 2 {
				view = prefix
			}
			order := rand.New(rand.NewSource(int64(g))).Perm(len(ladder))
			wg.Add(1)
			go func() {
				defer wg.Done()
				for _, k := range order {
					if _, err := Search(view, ladder[k], c, nil); err != nil {
						t.Error(err)
					}
				}
			}()
		}
		wg.Wait()
		serial := NewCache(ds, p, 42)
		mustSearch(t, ds, 0.6, serial)
		if !bytes.Equal(storeBytes(t, c), storeBytes(t, serial)) {
			t.Error("concurrent ladder left a store that differs from one cold probe at 0.6")
		}
	})
}

// TestEstimateTableMatchesFormula is (vi): for every state on the hash
// schedule the tabled estimate is the formula's value, bit for bit, and the
// states the table does not hold still go through the formula.
func TestEstimateTableMatchesFormula(t *testing.T) {
	for _, ds := range []*vec.Dataset{snapDataset(4), snapJaccardDataset(4)} {
		for _, sched := range [][2]int{{256, 32}, {250, 32}, {7, 3}} {
			p := DefaultParams()
			p.MaxHashes, p.Step = sched[0], sched[1]
			c := NewCache(ds, p, 1)
			formula := func(ps PairState) float64 {
				return c.collisionToSim(stats.NewBetaPosterior(int(ps.M), int(ps.N)).MAP())
			}
			states := []PairState{{M: 1, N: int32(p.Step) + 1}, {M: 3, N: 1000}, {M: -1, N: int32(p.Step)}}
			for n := int32(1); int(n) <= p.MaxHashes; n++ {
				if p.onSchedule(n) {
					for m := int32(0); m <= n; m++ {
						states = append(states, PairState{M: m, N: n})
					}
				}
			}
			if on := int64(len(states) - 3); on != p.scheduleCells() {
				t.Fatalf("%v %v: enumerated %d on-schedule states, scheduleCells %d", ds.Measure, sched, on, p.scheduleCells())
			}
			for _, ps := range states {
				if got, want := c.Estimate(ps), formula(ps); got != want {
					t.Fatalf("%v %v: Estimate(%d/%d) = %v, formula %v", ds.Measure, sched, ps.M, ps.N, got, want)
				}
			}
			if got := c.Estimate(PairState{}); got != 0 {
				t.Errorf("Estimate of no evidence = %v", got)
			}
			if got := c.Estimate(PairState{M: 1, N: 32, HasExact: true, Exact: 0.25}); got != 0.25 {
				t.Errorf("Estimate of a verified pair = %v", got)
			}
		}
	}
}

// TestPruneBoundMemoIsBounded pins that the per-threshold memo cannot grow
// with requests: thresholds are client-supplied float64s, so 10 000 distinct
// ones must leave at most maxPruneBounds entries, and a bound rebuilt after
// the memo was cleared equals the one built before.
func TestPruneBoundMemoIsBounded(t *testing.T) {
	c := NewCache(snapDataset(4), DefaultParams(), 1)
	first := append([]int32(nil), c.pruneBound(0.8)...)
	for i := 0; i < 10000; i++ {
		c.pruneBound(0.5 + float64(i)/20001)
		if len(c.pruneMax) > maxPruneBounds {
			t.Fatalf("after %d thresholds the memo holds %d bounds, cap %d", i+1, len(c.pruneMax), maxPruneBounds)
		}
	}
	if _, ok := c.pruneMax[0.8]; ok {
		t.Fatal("0.8 survived 10 000 other thresholds: the memo was never cleared")
	}
	again := c.pruneBound(0.8)
	if len(again) != len(first) {
		t.Fatalf("bound has %d points after a clear, %d before", len(again), len(first))
	}
	for k := range first {
		if again[k] != first[k] {
			t.Errorf("point %d: bound %d after a clear, %d before", k, again[k], first[k])
		}
	}
}
