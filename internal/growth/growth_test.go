package growth

import (
	"math"
	"testing"
	"testing/quick"

	"plasmahd/internal/dataset"
	"plasmahd/internal/stats"
)

func tableMatrix(t *testing.T, name string, maxPoints int) [][]float64 {
	t.Helper()
	tab, err := dataset.NewTableScaled(name, maxPoints, 1)
	if err != nil {
		t.Fatal(err)
	}
	stats.ZNorm(tab.X)
	return tab.X
}

func TestPairSimsSortedAndComplete(t *testing.T) {
	x := tableMatrix(t, "wine", 40)
	pairs := PairSims(x)
	want := 40 * 39 / 2
	if len(pairs) != want {
		t.Fatalf("%d pairs want %d", len(pairs), want)
	}
	for i := 1; i < len(pairs); i++ {
		if pairs[i].S > pairs[i-1].S {
			t.Fatal("pairs not sorted descending")
		}
	}
	for _, p := range pairs {
		if p.I >= p.J {
			t.Fatalf("pair order violated: %+v", p)
		}
	}
}

func TestDensitySchedule(t *testing.T) {
	s := DensitySchedule(100)
	if s[0] != 100 {
		t.Errorf("first step %d want n", s[0])
	}
	if s[len(s)-1] != 100*99/2 {
		t.Errorf("last step %d want complete", s[len(s)-1])
	}
	for i := 1; i < len(s)-1; i++ {
		if s[i] != 2*s[i-1] {
			t.Errorf("schedule not doubling at %d", i)
		}
	}
	f := FractionSchedule(100)
	if f[len(f)-1] != 1 {
		t.Errorf("fraction schedule must end at 1, got %v", f[len(f)-1])
	}
	for i := 1; i < len(f); i++ {
		if f[i] <= f[i-1] {
			t.Fatal("fractions must increase")
		}
	}
}

func TestGraphAtEdgesAndThreshold(t *testing.T) {
	x := tableMatrix(t, "wine", 30)
	pairs := PairSims(x)
	g := GraphAtEdges(pairs, 30, 50)
	if g.M() != 50 {
		t.Errorf("M=%d want 50", g.M())
	}
	// The graph at 50 edges is the 50 most similar pairs.
	for k := 0; k < 50; k++ {
		if !g.HasEdge(int(pairs[k].I), int(pairs[k].J)) {
			t.Fatalf("pair %d (%d, %d) missing from the graph", k, pairs[k].I, pairs[k].J)
		}
	}
	// Overflow clamps.
	g = GraphAtEdges(pairs, 30, 1<<20)
	if g.M() != len(pairs) {
		t.Errorf("clamped M=%d", g.M())
	}
}

func TestSamplingMethods(t *testing.T) {
	x := tableMatrix(t, "wine", 100)
	for _, m := range []Method{Random, Concentrated, Stratified} {
		idx := Sample(x, 30, m, 7)
		if len(idx) != 30 {
			t.Fatalf("%v: %d samples want 30", m, len(idx))
		}
		seen := map[int]bool{}
		for _, i := range idx {
			if i < 0 || i >= len(x) {
				t.Fatalf("%v: index %d out of range", m, i)
			}
			if seen[i] {
				t.Fatalf("%v: duplicate index %d", m, i)
			}
			seen[i] = true
		}
	}
	// p >= n returns everything.
	if got := Sample(x, 1000, Random, 1); len(got) != len(x) {
		t.Errorf("oversized sample %d", len(got))
	}
}

func TestConcentratedSamplingIsTighter(t *testing.T) {
	// Concentrated samples should have higher mean pairwise similarity than
	// random samples (the Fig 3.18 distribution shift).
	x := tableMatrix(t, "wine", 120)
	conc := Sample(x, 30, Concentrated, 3)
	rnd := Sample(x, 30, Random, 3)
	mc := stats.Mean(Similarities(PairSims(SubMatrix(x, conc))))
	mr := stats.Mean(Similarities(PairSims(SubMatrix(x, rnd))))
	if mc <= mr {
		t.Errorf("concentrated mean sim %v <= random %v", mc, mr)
	}
}

func TestCompleteValue(t *testing.T) {
	if v, ok := CompleteValue("triangles", 10); !ok || v != 120 {
		t.Errorf("C(10,3) = %v", v)
	}
	if v, ok := CompleteValue("diameter", 10); !ok || v != 1 {
		t.Errorf("complete diameter %v", v)
	}
	if v, ok := CompleteValue("clique_number", 7); !ok || v != 7 {
		t.Errorf("clique number %v", v)
	}
	if _, ok := CompleteValue("nonsense", 5); ok {
		t.Error("unknown measure should report !ok")
	}
}

func TestRunTriangleRegressionAccuracy(t *testing.T) {
	// The headline Table 3.2 result: regression predicts log triangle count
	// within a few percent.
	x := tableMatrix(t, "image", 220)
	cfg := DefaultConfig("triangles")
	cfg.SampleSize = 80
	cfg.Seed = 5
	out, err := Run(x, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if out.ErrMean > 0.10 {
		t.Errorf("regression log-triangle error %.3f > 10%%", out.ErrMean)
	}
	if len(out.PredY) != len(out.Fractions)-out.TrainCut {
		t.Fatal("prediction length mismatch")
	}
	for i, p := range out.PredY {
		if p < 0 {
			t.Errorf("negative triangle prediction %v at %d", p, i)
		}
	}
}

func TestRunTranslationScaling(t *testing.T) {
	x := tableMatrix(t, "image", 200)
	cfg := DefaultConfig("triangles")
	cfg.SampleSize = 80
	cfg.Predictor = TranslationScaling
	out, err := Run(x, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// TS anchors to the analytic complete value, so the final prediction
	// must equal C(n,3) (within fp tolerance in log space).
	n := float64(len(x))
	wantLast := n * (n - 1) * (n - 2) / 6
	gotLast := out.PredY[len(out.PredY)-1]
	if math.Abs(gotLast-wantLast)/wantLast > 0.01 {
		t.Errorf("TS endpoint %v want %v", gotLast, wantLast)
	}
	if out.ErrMean > 0.5 {
		t.Errorf("TS error %.3f unreasonably high", out.ErrMean)
	}
}

func TestRegressionBeatsTranslationScalingMostly(t *testing.T) {
	// Table 3.2's main comparison, on two datasets.
	wins := 0
	for _, name := range []string{"image", "waveform"} {
		x := tableMatrix(t, name, 180)
		ts := DefaultConfig("triangles")
		ts.SampleSize = 70
		ts.Predictor = TranslationScaling
		tsOut, err := Run(x, ts)
		if err != nil {
			t.Fatal(err)
		}
		rg := ts
		rg.Predictor = Regression
		rgOut, err := Run(x, rg)
		if err != nil {
			t.Fatal(err)
		}
		if rgOut.ErrMean <= tsOut.ErrMean {
			wins++
		}
	}
	if wins == 0 {
		t.Error("regression should beat translation-scaling on at least one dataset")
	}
}

func TestRunErrors(t *testing.T) {
	if _, err := Run(nil, DefaultConfig("triangles")); err == nil {
		t.Error("empty data should error")
	}
	x := tableMatrix(t, "wine", 50)
	cfg := DefaultConfig("nonsense")
	if _, err := Run(x, cfg); err == nil {
		t.Error("unknown measure should error")
	}
}

func TestRunOtherMeasures(t *testing.T) {
	x := tableMatrix(t, "wine", 120)
	for _, m := range []string{"number_connected_components", "mean_core_number", "average_clustering"} {
		cfg := DefaultConfig(m)
		cfg.SampleSize = 50
		out, err := Run(x, cfg)
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		if len(out.PredY) == 0 {
			t.Fatalf("%s: no predictions", m)
		}
	}
}

func TestMethodPredictorStrings(t *testing.T) {
	if Random.String() != "random" || Concentrated.String() != "concentrated" || Stratified.String() != "stratified" {
		t.Error("method names")
	}
	if TranslationScaling.String() != "translation-scaling" || Regression.String() != "regression" {
		t.Error("predictor names")
	}
}

func TestSampleDeterministicProperty(t *testing.T) {
	x := tableMatrix(t, "wine", 80)
	f := func(seed int64, mRaw uint8) bool {
		m := Method(int(mRaw) % 3)
		a := Sample(x, 20, m, seed)
		b := Sample(x, 20, m, seed)
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}
