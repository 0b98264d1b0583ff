package bayeslsh

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"plasmahd/internal/dataset"
	"plasmahd/internal/vec"
)

func wineDS(t *testing.T) *vec.Dataset {
	t.Helper()
	tab, err := dataset.NewTable("wine", 1)
	if err != nil {
		t.Fatal(err)
	}
	return tab.Dataset()
}

func TestPairKeyRoundTrip(t *testing.T) {
	f := func(a, b int32) bool {
		if a < 0 {
			a = -a
		}
		if b < 0 {
			b = -b
		}
		i, j := UnpackKey(PairKey(a, b))
		lo, hi := a, b
		if lo > hi {
			lo, hi = hi, lo
		}
		return i == lo && j == hi
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	if PairKey(3, 7) != PairKey(7, 3) {
		t.Error("key must be order-independent")
	}
}

func TestSearchMatchesExactOnWine(t *testing.T) {
	ds := wineDS(t)
	p := DefaultParams()
	p.MaxHashes = 512
	c := NewCache(ds, p, 42)
	for _, th := range []float64{0.9, 0.8} {
		res, err := Search(ds, th, c, nil)
		if err != nil {
			t.Fatal(err)
		}
		// Estimates are noisy within ±delta of the threshold, so measure
		// recall against pairs clearly above t and precision against truth
		// slightly below t (the paper's Eq 2.1/2.2 guarantees are exactly
		// this margin-form).
		margin := c.Params.Delta
		clearlyAbove := Exact(ds, th+margin)
		recall, _ := RecallPrecision(res.Pairs, clearlyAbove)
		if recall < 0.95 {
			t.Errorf("t=%v margin recall %v (got %d pairs, clear truth %d)",
				th, recall, len(res.Pairs), len(clearlyAbove))
		}
		loose := Exact(ds, th-margin)
		_, precision := RecallPrecision(res.Pairs, loose)
		if precision < 0.95 {
			t.Errorf("t=%v margin precision %v", th, precision)
		}
		// Estimates must be close to true similarity for retained pairs.
		var worst float64
		for _, pr := range res.Pairs {
			diff := math.Abs(pr.Est - ds.Similarity(int(pr.I), int(pr.J)))
			if diff > worst {
				worst = diff
			}
		}
		if worst > 3*p.Delta {
			t.Errorf("t=%v worst estimate error %v exceeds 3*delta", th, worst)
		}
	}
}

func TestSearchJaccard(t *testing.T) {
	d, err := dataset.NewCorpusScaled("orkut", 250, 3)
	if err != nil {
		t.Fatal(err)
	}
	p := DefaultParams()
	c := NewCache(d, p, 7)
	res, err := Search(d, 0.3, c, nil)
	if err != nil {
		t.Fatal(err)
	}
	clearlyAbove := Exact(d, 0.3+p.Delta)
	if len(clearlyAbove) == 0 {
		t.Skip("generator produced no clearly-similar pairs at this scale")
	}
	recall, _ := RecallPrecision(res.Pairs, clearlyAbove)
	if recall < 0.8 {
		t.Errorf("jaccard margin recall %v (clear truth %d, got %d)",
			recall, len(clearlyAbove), len(res.Pairs))
	}
}

func TestKnowledgeCacheSpeedsUpSecondProbe(t *testing.T) {
	ds := wineDS(t)
	c := NewCache(ds, DefaultParams(), 42)
	first, err := Search(ds, 0.9, c, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Second probe at a lower threshold must reuse pair states: fewer new
	// hash comparisons than a cold probe would need.
	cold := NewCache(ds, DefaultParams(), 42)
	coldRes, err := Search(ds, 0.7, cold, nil)
	if err != nil {
		t.Fatal(err)
	}
	warmRes, err := Search(ds, 0.7, c, nil)
	if err != nil {
		t.Fatal(err)
	}
	if warmRes.HashesCompared >= coldRes.HashesCompared {
		t.Errorf("warm probe compared %d hashes, cold %d — cache gave no savings",
			warmRes.HashesCompared, coldRes.HashesCompared)
	}
	if warmRes.CacheHits == 0 {
		t.Error("warm probe should have cache hits")
	}
	if first.CacheHits != 0 {
		t.Error("first probe cannot have cache hits")
	}
	// A same-threshold re-probe is free: every pair is decided from its
	// stored evidence. It returns at least the first probe's pairs — the 0.7
	// probe in between may have finished more.
	again, err := Search(ds, 0.9, c, nil)
	if err != nil {
		t.Fatal(err)
	}
	if again.HashesCompared != 0 {
		t.Errorf("re-probe compared %d hashes (first probe %d), want 0", again.HashesCompared, first.HashesCompared)
	}
	if !containsPairs(again.Pairs, first.Pairs) {
		t.Errorf("re-probe lost pairs of the first probe (%d returned, first %d)", len(again.Pairs), len(first.Pairs))
	}
}

func TestSearchProgressMonotone(t *testing.T) {
	ds := wineDS(t)
	c := NewCache(ds, DefaultParams(), 42)
	var rows []int
	var pairs []int
	_, err := Search(ds, 0.8, c, func(done, total, above int) {
		rows = append(rows, done)
		pairs = append(pairs, above)
		if total != ds.N() {
			t.Fatalf("total %d want %d", total, ds.N())
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != ds.N() {
		t.Fatalf("progress called %d times, want %d", len(rows), ds.N())
	}
	for i := 1; i < len(pairs); i++ {
		if pairs[i] < pairs[i-1] {
			t.Fatal("pair count must be nondecreasing")
		}
		if rows[i] != rows[i-1]+1 {
			t.Fatal("rows must advance by one")
		}
	}
}

func TestSearchCacheSizeMismatch(t *testing.T) {
	ds := wineDS(t)
	idx := make([]int, 10)
	for i := range idx {
		idx[i] = i
	}
	small := ds.Sample(idx)
	small.Name, small.Measure = ds.Name, ds.Measure
	c := NewCache(small, DefaultParams(), 1)
	// A dataset larger than the cache's row set must be refused: the cache
	// has no signatures for the extra rows.
	if _, err := Search(ds, 0.5, c, nil); err == nil {
		t.Error("dataset larger than cache must error")
	}
	// The reverse — a prefix view of a cache that has since grown — is the
	// probe-during-append window and must succeed.
	if _, err := c.AppendRows(ds.Rows[10:20]); err != nil {
		t.Fatal(err)
	}
	if _, err := Search(small, 0.5, c, nil); err != nil {
		t.Errorf("prefix probe after append must succeed, got %v", err)
	}
}

func TestExactCurveMonotone(t *testing.T) {
	ds := wineDS(t)
	grid := []float64{0.5, 0.6, 0.7, 0.8, 0.9}
	counts := ExactCurve(ds, grid)
	for i := 1; i < len(counts); i++ {
		if counts[i] > counts[i-1] {
			t.Fatal("cumulative pair counts must be nonincreasing in t")
		}
	}
	if counts[0] != len(Exact(ds, 0.5)) {
		t.Error("curve inconsistent with Exact")
	}
}

func TestProbAboveAndEstimate(t *testing.T) {
	ds := wineDS(t)
	c := NewCache(ds, DefaultParams(), 1)
	ps := PairState{M: 250, N: 256}
	est := c.Estimate(ps)
	if est < 0.9 {
		t.Errorf("near-full match estimate %v too low", est)
	}
	if pa := c.ProbAbove(ps, 0.5); pa < 0.99 {
		t.Errorf("ProbAbove(0.5) = %v for strong pair", pa)
	}
	if pa := c.ProbAbove(ps, 0.9999); pa > 0.9 {
		t.Errorf("ProbAbove(~1) = %v should be small-ish", pa)
	}
	if c.Estimate(PairState{}) != 0 {
		t.Error("zero-evidence estimate should be 0")
	}
	if c.ProbAbove(PairState{}, 0.5) != 0 {
		t.Error("zero-evidence tail should be 0")
	}
}

func TestRecallPrecisionEdge(t *testing.T) {
	r, p := RecallPrecision(nil, nil)
	if r != 1 || p != 1 {
		t.Error("empty/empty should be perfect")
	}
	r, p = RecallPrecision([]Pair{{I: 1, J: 2}}, nil)
	if r != 1 || p != 0 {
		t.Errorf("spurious pairs: r=%v p=%v", r, p)
	}
	r, p = RecallPrecision(nil, []Pair{{I: 1, J: 2}})
	if r != 0 || p != 1 {
		t.Errorf("missed pairs: r=%v p=%v", r, p)
	}
}

func TestPrunedPairsAreResumable(t *testing.T) {
	// After a high-threshold probe, pruned pairs should carry partial
	// evidence (N > 0, not Done) that a later probe extends.
	ds := wineDS(t)
	c := NewCache(ds, DefaultParams(), 42)
	if _, err := Search(ds, 0.95, c, nil); err != nil {
		t.Fatal(err)
	}
	partial := 0
	c.Pairs.Range(func(_ uint64, ps PairState) bool {
		if !ps.Done && ps.N > 0 && int(ps.N) < c.Params.MaxHashes {
			partial++
		}
		return true
	})
	if partial == 0 {
		t.Error("expected some pruned-but-resumable pair states")
	}
}

func TestSearchDeterministic(t *testing.T) {
	ds := wineDS(t)
	a, _ := Search(ds, 0.8, NewCache(ds, DefaultParams(), 42), nil)
	b, _ := Search(ds, 0.8, NewCache(ds, DefaultParams(), 42), nil)
	if len(a.Pairs) != len(b.Pairs) {
		t.Fatalf("nondeterministic: %d vs %d pairs", len(a.Pairs), len(b.Pairs))
	}
	for i := range a.Pairs {
		if a.Pairs[i] != b.Pairs[i] {
			t.Fatal("pair lists differ")
		}
	}
}

func randomSparseDS(rng *rand.Rand, n, dim int) *vec.Dataset {
	d := &vec.Dataset{Name: "rand", Dim: dim, Measure: vec.JaccardSim}
	for i := 0; i < n; i++ {
		m := map[int32]float64{}
		for k := 0; k < 4+rng.Intn(6); k++ {
			m[int32(rng.Intn(dim))] = 1
		}
		d.Rows = append(d.Rows, vec.FromMap(m))
	}
	return d
}

func TestSearchNeverReturnsBelowThresholdEstimates(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	ds := randomSparseDS(rng, 120, 60)
	c := NewCache(ds, DefaultParams(), 5)
	res, err := Search(ds, 0.4, c, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range res.Pairs {
		if p.Est < 0.4 {
			t.Fatalf("returned pair with estimate %v below threshold", p.Est)
		}
		if p.I >= p.J {
			t.Fatalf("pair not ordered: %+v", p)
		}
	}
}
