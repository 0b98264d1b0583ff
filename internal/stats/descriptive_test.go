package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestMeanVarianceStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	approx(t, Mean(xs), 5, 1e-12, "mean")
	approx(t, Variance(xs), 4, 1e-12, "variance")
	approx(t, StdDev(xs), 2, 1e-12, "stddev")
	approx(t, Mean(nil), 0, 0, "empty mean")
	approx(t, Variance(nil), 0, 0, "empty variance")
}

func TestHistogram(t *testing.T) {
	h := NewHistogram([]float64{0.05, 0.15, 0.15, 0.95, -3, 7}, 10, 0, 1)
	if h.Total() != 6 {
		t.Fatalf("total %d", h.Total())
	}
	if h.Counts[0] != 2 { // 0.05 and clamped -3
		t.Errorf("bin0 = %d", h.Counts[0])
	}
	if h.Counts[1] != 2 {
		t.Errorf("bin1 = %d", h.Counts[1])
	}
	if h.Counts[9] != 2 { // 0.95 and clamped 7
		t.Errorf("bin9 = %d", h.Counts[9])
	}
	approx(t, h.BinCenter(0), 0.05, 1e-12, "bin center")
}

// TestHistogramDegenerateBins pins the defensive clamps: a negative bin
// count must yield an empty histogram, not a make([]int, n<0) panic — only
// handler-side validation stands between a crafted request and that crash.
func TestHistogramDegenerateBins(t *testing.T) {
	for _, n := range []int{-1, -1000, 0} {
		h := NewHistogram([]float64{1, 2, 3}, n, 0, 10)
		if len(h.Counts) != 0 {
			t.Errorf("n=%d: %d bins, want 0", n, len(h.Counts))
		}
		if h.Total() != 0 {
			t.Errorf("n=%d: total %d, want 0", n, h.Total())
		}
	}
	// Inverted and zero-width ranges stay empty too.
	if h := NewHistogram([]float64{1}, 4, 5, 5); h.Total() != 0 {
		t.Error("zero-width range must bin nothing")
	}
	if h := NewHistogram([]float64{1}, 4, 9, 5); h.Total() != 0 {
		t.Error("inverted range must bin nothing")
	}
}

func TestMeanRelativeError(t *testing.T) {
	approx(t, Mean(RelativeErrors([]float64{110, 90}, []float64{100, 100})), 0.1, 1e-12, "mre")
	if errs := RelativeErrors([]float64{1}, []float64{0}); len(errs) != 0 {
		t.Errorf("zero actual must be skipped, got %v", errs)
	}
	errs := RelativeErrors([]float64{110, 90, 5}, []float64{100, 100, 0})
	if len(errs) != 2 {
		t.Fatalf("want 2 errors, got %d", len(errs))
	}
}

func TestZNorm(t *testing.T) {
	x := [][]float64{{1, 10, 5}, {2, 20, 5}, {3, 30, 5}}
	ZNorm(x)
	for j := 0; j < 3; j++ {
		col := []float64{x[0][j], x[1][j], x[2][j]}
		approx(t, Mean(col), 0, 1e-12, "znorm mean")
	}
	// Non-constant columns have unit variance; constant column stays zero.
	approx(t, Variance([]float64{x[0][0], x[1][0], x[2][0]}), 1, 1e-12, "znorm var")
	approx(t, x[0][2], 0, 1e-12, "constant column centered")
	ZNorm(nil) // must not panic
}

func TestZNormIdempotentProperty(t *testing.T) {
	f := func(seed int64) bool {
		n := 5 + int(uint64(seed)%20)
		x := make([][]float64, n)
		s := uint64(seed)
		for i := range x {
			x[i] = make([]float64, 3)
			for j := range x[i] {
				s = s*6364136223846793005 + 1442695040888963407
				x[i][j] = float64(s%1000) / 37.0
			}
		}
		ZNorm(x)
		y := make([][]float64, n)
		for i := range x {
			y[i] = append([]float64(nil), x[i]...)
		}
		ZNorm(y)
		for i := range x {
			for j := range x[i] {
				if math.Abs(x[i][j]-y[i][j]) > 1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
