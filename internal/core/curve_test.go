package core

import (
	"bytes"
	"math/rand"
	"testing"

	"plasmahd/internal/bayeslsh"
	"plasmahd/internal/vec"
)

// syntheticStoreSession returns a session whose pair store was filled through
// PairStore.Update with the shape the repository's benchmark measured on its
// dense workload after a 0.9/0.8/0.7/0.6 ladder: 90 distinct unverified
// (N, M) states, unevenly populated, and 3 % verified pairs. The dataset
// behind it is tiny — only the store matters to the curve.
func syntheticStoreSession(pairs int) *Session {
	rows := 2
	for rows*(rows-1)/2 < pairs {
		rows++
	}
	ds := &vec.Dataset{Name: "synthetic-store", Dim: 4, Measure: vec.CosineSim}
	for i := 0; i < rows; i++ {
		ds.Rows = append(ds.Rows, vec.Sparse{Indices: []int32{int32(i % 4)}, Values: []float64{1}})
	}
	s := NewSession(ds, bayeslsh.DefaultParams(), 1)

	var cells []bayeslsh.PairState
	for _, band := range []struct{ n, lo, hi int32 }{
		{32, 0, 30}, {64, 10, 35}, {96, 30, 45}, {128, 50, 60}, {256, 100, 110},
	} {
		for m := band.lo; m < band.hi; m++ {
			cells = append(cells, bayeslsh.PairState{M: m, N: band.n})
		}
	}
	rng := rand.New(rand.NewSource(19))
	left := pairs
	for j := int32(1); left > 0; j++ {
		for i := int32(0); i < j && left > 0; i++ {
			ps := cells[min(rng.Intn(len(cells)), rng.Intn(len(cells)))] // skewed to shallow evidence
			if rng.Intn(100) < 3 {
				ps = bayeslsh.PairState{M: 200, N: 256, Done: true, HasExact: true, Exact: 0.3 + 0.7*rng.Float32()}
			}
			s.Cache.Pairs.Update(bayeslsh.PairKey(i, j), ps)
			left--
		}
	}
	return s
}

var curveSink []CurvePoint

// BenchmarkCurve14 is GET /curve's default request — a 14-point grid — over
// 100 k cached pairs; BenchmarkCurveAt is the single point a cold /cues adds.
func BenchmarkCurve14(b *testing.B) {
	s := syntheticStoreSession(100_000)
	grid := ThresholdGrid(0.3, 0.95, 14)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		curveSink = s.CumulativeAPSS(grid)
	}
}

func BenchmarkCurveAt(b *testing.B) {
	s := syntheticStoreSession(100_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		curveSink = append(curveSink[:0], s.CurveAt(0.7))
	}
}

// TestCurveAllocsIndependentOfPairs pins that evaluating a curve point
// allocates by the number of distinct evidence states, never by the number
// of cached pairs — per-row copies of the store must not come back.
func TestCurveAllocsIndependentOfPairs(t *testing.T) {
	small, large := syntheticStoreSession(10_000), syntheticStoreSession(100_000)
	allocs := func(s *Session) float64 {
		return testing.AllocsPerRun(5, func() { s.CurveAt(0.7) })
	}
	if a, b := allocs(small), allocs(large); b > a {
		t.Errorf("CurveAt allocates %v times over 10k pairs but %v over 100k", a, b)
	}
}

// TestCurveBitEqual pins the determinism contract of the counted curve at
// the session level: the same probe ladder on 1 and 8 workers, and a
// restored session against its original, return == curve points. (Insertion
// order is pinned on the function itself, bayeslsh.TestMassAboveOrderFree;
// grown vs from-scratch in TestSessionIngestEquivalence.)
func TestCurveBitEqual(t *testing.T) {
	forceParallel(t)
	grid := ThresholdGrid(0.3, 0.95, 14)
	equal := func(t *testing.T, what string, a, b *Session) {
		t.Helper()
		ca, cb := a.CumulativeAPSS(grid), b.CumulativeAPSS(grid)
		for k := range ca {
			if ca[k] != cb[k] {
				t.Errorf("%s: point %d: %+v vs %+v", what, k, ca[k], cb[k])
			}
		}
	}
	_, ds := wineSession(t)
	ladder := func(t *testing.T, workers int) *Session {
		t.Helper()
		p := bayeslsh.DefaultParams()
		p.Workers = workers
		s := NewSession(ds, p, 42)
		for _, th := range []float64{0.9, 0.8, 0.7} {
			if _, err := s.Probe(th); err != nil {
				t.Fatal(err)
			}
		}
		return s
	}

	serial := ladder(t, 1)
	equal(t, "workers 1 vs 8", serial, ladder(t, 8))

	var buf bytes.Buffer
	if err := serial.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := RestoreSession(&buf, nil)
	if err != nil {
		t.Fatal(err)
	}
	equal(t, "restored vs original", serial, restored)
}
