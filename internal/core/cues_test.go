package core

import (
	"sync"
	"testing"

	"plasmahd/internal/bayeslsh"
)

// TestCueSetMemoized pins the memoization contract: repeated same-threshold
// reads between probes return the same CueSet (one graph materialization),
// and distinct thresholds get distinct entries.
func TestCueSetMemoized(t *testing.T) {
	s, _ := wineSession(t)
	if _, err := s.Probe(0.8); err != nil {
		t.Fatal(err)
	}
	a := s.CueSet(0.8)
	if b := s.CueSet(0.8); b != a {
		t.Error("same-threshold CueSet must be served from the cache")
	}
	if s.CueSet(0.9) == a {
		t.Error("distinct thresholds must not share a CueSet")
	}
	// The expensive derivations are computed once and shared.
	p1 := a.TrianglesPerVertex()
	p2 := a.TrianglesPerVertex()
	if &p1[0] != &p2[0] {
		t.Error("TrianglesPerVertex must be memoized")
	}
	if a.Triangles() <= 0 {
		t.Error("wine at 0.8 should have triangles")
	}
	if a.Components() != a.Components() {
		t.Error("Components must be deterministic")
	}
}

// TestCueSetStaleGraphInvalidation is the stale-graph regression test: a
// CueSet cached before a probe must not be served after the probe changed
// the knowledge cache — neither when the probe grows the pair store (first
// probe), nor when it only deepens existing evidence (every later probe
// generates the same candidate set, so the store's size is unchanged but
// pair estimates move).
func TestCueSetStaleGraphInvalidation(t *testing.T) {
	s, _ := wineSession(t)

	// Cache a cue read on the empty knowledge cache.
	empty := s.CueSet(0.8)
	if empty.Graph().M() != 0 {
		t.Fatalf("no probes yet, graph has %d edges", empty.Graph().M())
	}

	// First probe: the pair store grows from zero, the key's pairs
	// fingerprint changes, and the empty graph must be rebuilt.
	if _, err := s.Probe(0.9); err != nil {
		t.Fatal(err)
	}
	afterFirst := s.CueSet(0.8)
	if afterFirst == empty {
		t.Fatal("probe grew the pair store but CueSet served the stale graph")
	}
	if afterFirst.Graph().M() == 0 {
		t.Fatal("post-probe graph should have edges")
	}

	// Second probe at a lower threshold: the candidate set is identical, so
	// the store does NOT grow — only existing pairs gain evidence. The cue
	// layer must still invalidate (probe-count fingerprint).
	pairsBefore := s.CachedPairs()
	if _, err := s.Probe(0.8); err != nil {
		t.Fatal(err)
	}
	if got := s.CachedPairs(); got != pairsBefore {
		t.Fatalf("scenario broke: pair store grew %d -> %d on the second probe", pairsBefore, got)
	}
	afterSecond := s.CueSet(0.8)
	if afterSecond == afterFirst {
		t.Fatal("evidence-deepening probe must invalidate the cached CueSet")
	}
	// Deeper evidence at 0.8 can only firm up the edge set at 0.8.
	if afterSecond.Graph().M() < afterFirst.Graph().M() {
		t.Errorf("edges shrank after a same-threshold probe: %d -> %d",
			afterFirst.Graph().M(), afterSecond.Graph().M())
	}
}

// TestCueSetLRUEviction fills the cue cache past its capacity and checks
// the oldest entry is rebuilt while a recently touched one survives.
func TestCueSetLRUEviction(t *testing.T) {
	s, _ := wineSession(t)
	if _, err := s.Probe(0.8); err != nil {
		t.Fatal(err)
	}
	touched := s.CueSet(0.50)
	evicted := s.CueSet(0.51)
	s.CueSet(0.50) // LRU touch: 0.51 is now the eviction candidate
	// Fill to one past capacity: exactly one entry (0.51) is evicted.
	for i := 0; i < cueCacheSize-1; i++ {
		s.CueSet(0.6 + float64(i)/100)
	}
	if s.CueSet(0.50) != touched {
		t.Error("recently touched threshold must survive the eviction sweep")
	}
	if s.CueSet(0.51) == evicted {
		t.Error("least recently used threshold should have been evicted and rebuilt")
	}
}

// TestCueSetConcurrent hammers the cue layer from many goroutines while a
// probe runs — the plasmad access pattern. Run under -race this checks the
// LRU and the once-guarded derivations; the assertion pins that concurrent
// same-key readers share one materialization.
func TestCueSetConcurrent(t *testing.T) {
	s, _ := wineSession(t)
	if _, err := s.Probe(0.9); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	got := make([]*CueSet, 8)
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := s.Probe(0.7); err != nil {
			t.Error(err)
		}
	}()
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			cs := s.CueSet(0.8)
			cs.TrianglesPerVertex()
			cs.DensityProfile()
			cs.Components()
			got[g] = cs
		}(g)
	}
	wg.Wait()
	// All readers that observed the same cache state share the build; with
	// a probe in flight there can be at most a handful of distinct states.
	distinct := map[*CueSet]bool{}
	for _, cs := range got {
		distinct[cs] = true
	}
	if len(distinct) > 3 {
		t.Errorf("%d distinct CueSets for one threshold under concurrency", len(distinct))
	}
}

// TestCueSetCurveEstimate pins the memoized curve estimate: it is the
// session's CurveAt at the cue threshold, concurrent readers share one
// evaluation, and a probe or an append — anything that changes the cue key
// — yields a CueSet with a fresh value.
func TestCueSetCurveEstimate(t *testing.T) {
	full := ingestCosineDS(60)
	s := NewSession(ingestPrefix(full, 40), bayeslsh.DefaultParams(), 5)
	probeSeq(t, s, []float64{0.9})

	cs := s.CueSet(0.6)
	var wg sync.WaitGroup
	got := make([]float64, 8)
	for g := range got {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			got[g] = cs.CurveEstimate()
		}(g)
	}
	wg.Wait()
	want := s.CurveAt(0.6).Estimate
	if want == 0 {
		t.Fatal("scenario broke: no mass at 0.6 after a probe at 0.9")
	}
	for g, est := range got {
		if est != want {
			t.Errorf("reader %d: CurveEstimate = %v, CurveAt(0.6).Estimate = %v", g, est, want)
		}
	}

	// A deeper probe moves the estimate; the stale CueSet keeps its
	// memoized value and the new key gets the new one.
	probeSeq(t, s, []float64{0.5})
	if cs.CurveEstimate() != want {
		t.Error("a CueSet's estimate must not change once computed")
	}
	afterProbe := s.CueSet(0.6)
	if afterProbe == cs || afterProbe.CurveEstimate() != s.CurveAt(0.6).Estimate || afterProbe.CurveEstimate() == want {
		t.Errorf("after a probe: estimate %v (before %v), CurveAt %v", afterProbe.CurveEstimate(), want, s.CurveAt(0.6).Estimate)
	}

	// An append followed by a probe over the grown data does the same.
	if _, err := s.AppendRows(full.Rows[40:]); err != nil {
		t.Fatal(err)
	}
	afterAppend := s.CueSet(0.6)
	if afterAppend == afterProbe {
		t.Fatal("an append must invalidate the CueSet")
	}
	probeSeq(t, s, []float64{0.5})
	grown := s.CueSet(0.6)
	if grown.CurveEstimate() != s.CurveAt(0.6).Estimate || grown.CurveEstimate() <= afterProbe.CurveEstimate() {
		t.Errorf("after append+probe: estimate %v (before %v), CurveAt %v", grown.CurveEstimate(), afterProbe.CurveEstimate(), s.CurveAt(0.6).Estimate)
	}
}
