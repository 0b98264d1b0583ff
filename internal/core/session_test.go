package core

import (
	"math"
	"testing"

	"plasmahd/internal/bayeslsh"
	"plasmahd/internal/dataset"
	"plasmahd/internal/graph"
	"plasmahd/internal/vec"
)

func wineSession(t *testing.T) (*Session, *vec.Dataset) {
	t.Helper()
	tab, err := dataset.NewTable("wine", 1)
	if err != nil {
		t.Fatal(err)
	}
	ds := tab.Dataset()
	return NewSession(ds, bayeslsh.DefaultParams(), 42), ds
}

func TestCumulativeAPSSAccuracyAboveProbe(t *testing.T) {
	s, ds := wineSession(t)
	if _, err := s.Probe(0.8); err != nil {
		t.Fatal(err)
	}
	grid := ThresholdGrid(0.5, 0.95, 10)
	curve := s.CumulativeAPSS(grid)
	truth := bayeslsh.ExactCurve(ds, grid)
	// Above the probed threshold the estimate must track ground truth
	// closely (Fig 2.3's "accurate at upper thresholds" claim).
	for k, pt := range curve {
		if pt.Threshold < 0.8 {
			continue
		}
		if truth[k] == 0 {
			continue
		}
		rel := math.Abs(pt.Estimate-float64(truth[k])) / float64(truth[k])
		if rel > 0.15 {
			t.Errorf("t=%.2f estimate %.0f vs truth %d (rel err %.2f)",
				pt.Threshold, pt.Estimate, truth[k], rel)
		}
	}
	// Error bars must be nonnegative and the curve nonincreasing.
	for k := 1; k < len(curve); k++ {
		if curve[k].ErrBar < 0 {
			t.Error("negative error bar")
		}
		if curve[k].Estimate > curve[k-1].Estimate+1e-6 {
			t.Error("cumulative curve must be nonincreasing in t")
		}
	}
}

func TestSecondProbeImprovesLowerCurve(t *testing.T) {
	s, ds := wineSession(t)
	grid := ThresholdGrid(0.5, 0.9, 9)
	truth := bayeslsh.ExactCurve(ds, grid)
	if _, err := s.Probe(0.8); err != nil {
		t.Fatal(err)
	}
	before := s.CumulativeAPSS(grid)
	if _, err := s.Probe(0.5); err != nil {
		t.Fatal(err)
	}
	after := s.CumulativeAPSS(grid)
	// Mean relative error across the sub-0.8 grid should not get worse, and
	// should end small — the Fig 2.4 "purple line" effect.
	errOf := func(c []CurvePoint) float64 {
		var s float64
		n := 0
		for k, pt := range c {
			if pt.Threshold >= 0.8 || truth[k] == 0 {
				continue
			}
			s += math.Abs(pt.Estimate-float64(truth[k])) / float64(truth[k])
			n++
		}
		return s / float64(n)
	}
	e0, e1 := errOf(before), errOf(after)
	if e1 > e0+0.02 {
		t.Errorf("second probe worsened lower-curve error: %.3f -> %.3f", e0, e1)
	}
	if e1 > 0.15 {
		t.Errorf("post-refinement error %.3f too high", e1)
	}
}

func TestThresholdGraphAndCues(t *testing.T) {
	s, ds := wineSession(t)
	if _, err := s.Probe(0.7); err != nil {
		t.Fatal(err)
	}
	g := s.ThresholdGraph(0.8)
	if g.N() != ds.N() {
		t.Fatalf("graph N=%d want %d", g.N(), ds.N())
	}
	exact := len(bayeslsh.Exact(ds, 0.8))
	if g.M() == 0 {
		t.Fatal("threshold graph has no edges")
	}
	rel := math.Abs(float64(g.M()-exact)) / float64(exact)
	if rel > 0.2 {
		t.Errorf("threshold graph edges %d vs exact %d", g.M(), exact)
	}
	// Cues must be computable from cache only.
	if s.TriangleCount(0.8) <= 0 {
		t.Error("wine at 0.8 should have triangles")
	}
	h := s.TriangleHistogram(0.8, 10)
	if h.Total() != ds.N() || len(h.Counts) != 10 {
		t.Errorf("histogram total %d in %d bins, want %d in 10", h.Total(), len(h.Counts), ds.N())
	}
	// No estimate reaches 1.5, so that graph has no triangles: its histogram
	// is the single meaningful bucket [0, 1), not ten with nine phantoms.
	if h := s.TriangleHistogram(1.5, 10); len(h.Counts) != 1 || h.Lo != 0 || h.Hi != 1 || h.Total() != ds.N() {
		t.Errorf("no-triangle histogram = {lo:%v hi:%v counts:%v}, want all %d vertices in [0,1)",
			h.Lo, h.Hi, h.Counts, ds.N())
	}
	prof := s.DensityProfile(0.8)
	if len(prof) != ds.N() {
		t.Fatalf("profile length %d", len(prof))
	}
	for i := 1; i < len(prof); i++ {
		if prof[i] > prof[i-1] {
			t.Fatal("density profile must be nonincreasing")
		}
	}
}

func TestFindKnee(t *testing.T) {
	// Synthetic curve with an obvious knee at t=0.5.
	var curve []CurvePoint
	for _, tv := range ThresholdGrid(0.1, 0.9, 9) {
		est := 100.0
		if tv < 0.5 {
			est = 100000 * (0.5 - tv) * 10
		}
		curve = append(curve, CurvePoint{Threshold: tv, Estimate: est})
	}
	knee := FindKnee(curve)
	if knee < 0.3 || knee > 0.6 {
		t.Errorf("knee at %v, want near 0.5", knee)
	}
	if FindKnee(nil) != 0 {
		t.Error("empty curve knee")
	}
	if FindKnee(curve[:1]) != curve[0].Threshold {
		t.Error("single point knee")
	}
}

// TestFindKneeRegression pins the knee on known curves: an exact-tie curve
// must break toward the lowest threshold, a flat curve must return the first
// grid point (the old implementation could never pick an endpoint), and a
// non-uniform grid must not let wide spacing masquerade as curvature.
func TestFindKneeRegression(t *testing.T) {
	pts := func(ts []float64, es []float64) []CurvePoint {
		out := make([]CurvePoint, len(ts))
		for i := range ts {
			out[i] = CurvePoint{Threshold: ts[i], Estimate: es[i]}
		}
		return out
	}

	// Symmetric plateau: the rise onto it and the fall off it are mirrored
	// float-for-float, so the two interior bends have bit-identical
	// curvature. The tie must break toward the lower threshold (0.5), not
	// iteration accident.
	// (Power-of-two thresholds so the step subtractions are exact and the
	// two curvatures come out bit-identical.)
	tie := pts([]float64{0.25, 0.5, 0.75, 1.0}, []float64{0, 100, 100, 0})
	if knee := FindKnee(tie); knee != 0.5 {
		t.Errorf("tie knee = %v, want 0.5 (lowest threshold wins)", knee)
	}

	// Flat curve: no bend anywhere; the lowest grid threshold must win —
	// endpoints are representable answers now.
	flat := pts([]float64{0.2, 0.4, 0.6, 0.8}, []float64{50, 50, 50, 50})
	if knee := FindKnee(flat); knee != 0.2 {
		t.Errorf("flat knee = %v, want 0.2", knee)
	}

	// Non-uniform grid: a mild slope change (1 -> 3 per unit t) sampled on
	// wide 0.3 steps against a sharp one (3 -> 7) sampled on fine 0.05
	// steps. The raw second difference is larger in the coarse region
	// (0.6 vs 0.2) purely because of spacing, so the old formula picked
	// 0.4; per-step normalization must pick the genuinely sharper bend.
	logv := []float64{6, 5.7, 4.8, 4.5, 4.35, 4.0}
	est := make([]float64, len(logv))
	for i, lv := range logv {
		est[i] = math.Expm1(lv)
	}
	nonuni := pts([]float64{0.1, 0.4, 0.7, 0.8, 0.85, 0.9}, est)
	if knee := FindKnee(nonuni); knee != 0.85 {
		t.Errorf("non-uniform knee = %v, want 0.85", knee)
	}
}

func TestThresholdGrid(t *testing.T) {
	g := ThresholdGrid(0, 1, 11)
	if len(g) != 11 || g[0] != 0 || g[10] != 1 {
		t.Fatalf("grid %v", g)
	}
	if math.Abs(g[5]-0.5) > 1e-12 {
		t.Errorf("midpoint %v", g[5])
	}
	// Degenerate step counts clamp to 2 so hi is never silently dropped.
	for _, steps := range []int{-3, 0, 1} {
		g := ThresholdGrid(0.25, 0.75, steps)
		if len(g) != 2 || g[0] != 0.25 || g[1] != 0.75 {
			t.Errorf("ThresholdGrid(0.25, 0.75, %d) = %v, want both endpoints", steps, g)
		}
	}
	// A zero-width interval is the only single-point grid.
	if g := ThresholdGrid(0.5, 0.5, 7); len(g) != 1 || g[0] != 0.5 {
		t.Errorf("zero-width grid %v", g)
	}
}

func TestCommunityClarity(t *testing.T) {
	labels := []int{0, 0, 0, 1, 1, 1}
	// Perfectly clustered: two triangles.
	g := graph.FromEdges(6, [][2]int32{{0, 1}, {1, 2}, {0, 2}, {3, 4}, {4, 5}, {3, 5}})
	intra, cov := CommunityClarity(g, labels)
	if intra != 1 || cov != 1 {
		t.Errorf("clean communities: intra=%v cov=%v", intra, cov)
	}
	// Sparse: only one edge, most vertices isolated.
	g = graph.FromEdges(6, [][2]int32{{0, 1}})
	_, cov = CommunityClarity(g, labels)
	if cov > 0.5 {
		t.Errorf("sparse coverage = %v", cov)
	}
	// Noisy: all inter-community edges.
	g = graph.FromEdges(6, [][2]int32{{0, 3}, {1, 4}, {2, 5}})
	intra, _ = CommunityClarity(g, labels)
	if intra != 0 {
		t.Errorf("noisy intra = %v", intra)
	}
}

func TestToyThresholdSweepMatchesFig22(t *testing.T) {
	// On the toy d1 dataset, t=0.5 must reveal community structure more
	// clearly than 0.8 (too sparse) and 0.2 (too dense/noisy).
	toy := dataset.Toy50(1)
	ds := toy.Dataset()
	s := NewSession(ds, bayeslsh.DefaultParams(), 7)
	if _, err := s.Probe(0.2); err != nil { // low probe fills the cache broadly
		t.Fatal(err)
	}
	type clarity struct{ intra, cov float64 }
	at := func(th float64) clarity {
		g := s.ThresholdGraph(th)
		i, c := CommunityClarity(g, toy.Labels)
		return clarity{i, c}
	}
	sparse, good, dense := at(0.995), at(0.95), at(0.2)
	// Sparse graph: many isolated vertices.
	if sparse.cov >= good.cov {
		t.Errorf("high threshold should isolate vertices: cov %.2f vs %.2f", sparse.cov, good.cov)
	}
	// Dense graph: intra fraction degrades towards the random baseline.
	if dense.intra >= good.intra {
		t.Errorf("low threshold should blur communities: intra %.2f vs %.2f", dense.intra, good.intra)
	}
	// Good threshold: well connected and mostly intra-community.
	if good.intra < 0.8 || good.cov < 0.9 {
		t.Errorf("good threshold not clear: intra=%.2f cov=%.2f", good.intra, good.cov)
	}
}

func TestProbeIncrementalConverges(t *testing.T) {
	s, _ := wineSession(t)
	snaps, err := s.ProbeIncremental(0.5, []float64{0.75, 0.8, 0.85}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) < 5 {
		t.Fatalf("only %d snapshots", len(snaps))
	}
	final := snaps[len(snaps)-1]
	if final.PercentProcessed != 100 {
		t.Errorf("final snapshot at %v%%", final.PercentProcessed)
	}
	// By 30% of data processed, the estimate must be within 40% of the
	// final estimate (the paper sees convergence by 10-20%).
	for _, t2 := range []float64{0.75, 0.8, 0.85} {
		fin := final.Estimates[t2]
		if fin == 0 {
			continue
		}
		for _, sn := range snaps {
			if sn.PercentProcessed < 30 {
				continue
			}
			rel := math.Abs(sn.Estimates[t2]-fin) / fin
			if rel > 0.4 {
				t.Errorf("t2=%v at %.0f%%: estimate %.0f vs final %.0f",
					t2, sn.PercentProcessed, sn.Estimates[t2], fin)
			}
		}
	}
}

// TestKnowledgeCachingWorkload is Fig 2.10 as a claim that can fail. On the
// paper's .95→.70 workload the first step costs the same either way and every
// later cached step compares under a tenth of its uncached hashes (2–5 % when
// written: a pair is tested against the new bound from its stored evidence
// before anything is hashed, and most candidates sit far below every bound).
// Run ascending, the same workload compares nothing after its first step.
func TestKnowledgeCachingWorkload(t *testing.T) {
	d, err := dataset.NewCorpusScaled("twitter", 300, 3)
	if err != nil {
		t.Fatal(err)
	}
	descending := []float64{0.95, 0.9, 0.85, 0.8, 0.75, 0.7}
	steps, err := KnowledgeCachingWorkload(d, bayeslsh.DefaultParams(), descending, 11)
	if err != nil {
		t.Fatal(err)
	}
	if len(steps) != len(descending) {
		t.Fatalf("%d steps", len(steps))
	}
	// First step: no savings possible (same work both ways).
	if steps[0].CachedHashes != steps[0].UncachedHashes || steps[0].UncachedHashes == 0 {
		t.Errorf("first threshold should cost the same: %d vs %d",
			steps[0].CachedHashes, steps[0].UncachedHashes)
	}
	for _, st := range steps[1:] {
		if st.CachedHashes == 0 || 10*st.CachedHashes >= st.UncachedHashes {
			t.Errorf("t=%v: cached %d hashes, uncached %d — want a resumed probe under 10%%",
				st.Threshold, st.CachedHashes, st.UncachedHashes)
		}
		if st.SpeedupPct <= 90 {
			t.Errorf("t=%v: speedup %.1f%%", st.Threshold, st.SpeedupPct)
		}
	}

	ascending := []float64{0.7, 0.75, 0.8, 0.85, 0.9, 0.95}
	steps, err = KnowledgeCachingWorkload(d, bayeslsh.DefaultParams(), ascending, 11)
	if err != nil {
		t.Fatal(err)
	}
	for i, st := range steps {
		if (i == 0) != (st.CachedHashes > 0) || st.UncachedHashes == 0 {
			t.Errorf("ascending step %d (t=%v): cached %d hashes, uncached %d — only the first step may hash",
				i, st.Threshold, st.CachedHashes, st.UncachedHashes)
		}
	}
}

func TestRunInteractiveScenario(t *testing.T) {
	toy := dataset.Toy50(1)
	ds := toy.Dataset()
	grid := ThresholdGrid(0.5, 0.99, 11)
	sc, err := RunInteractiveScenario(ds, bayeslsh.DefaultParams(), 0.95, grid, 3)
	if err != nil {
		t.Fatal(err)
	}
	if sc.FirstThreshold != 0.95 {
		t.Error("first threshold")
	}
	if len(sc.Curve) != len(grid) || len(sc.TruthCurve) != len(grid) {
		t.Fatal("curve lengths")
	}
	if sc.TwoProbeTime <= 0 || sc.BruteForceTime <= 0 {
		t.Error("times must be positive")
	}
	// The final curve should track truth within a reasonable envelope.
	for k := range grid {
		if sc.TruthCurve[k] == 0 {
			continue
		}
		rel := math.Abs(sc.Curve[k].Estimate-float64(sc.TruthCurve[k])) / float64(sc.TruthCurve[k])
		if rel > 0.5 {
			t.Errorf("t=%.2f: est %.0f vs truth %d", grid[k], sc.Curve[k].Estimate, sc.TruthCurve[k])
		}
	}
}
