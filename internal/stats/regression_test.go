package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSimpleRegression(t *testing.T) {
	x := []float64{0, 1, 2, 3}
	y := []float64{1, 3, 5, 7}
	a, b := SimpleRegression(x, y)
	approx(t, a, 1, 1e-12, "simple intercept")
	approx(t, b, 2, 1e-12, "simple slope")

	a, b = SimpleRegression(nil, nil)
	if a != 0 || b != 0 {
		t.Error("empty regression should be zero")
	}
	// Constant x: slope 0, intercept mean.
	a, b = SimpleRegression([]float64{2, 2, 2}, []float64{1, 2, 3})
	approx(t, a, 2, 1e-12, "degenerate intercept")
	approx(t, b, 0, 1e-12, "degenerate slope")
}

func TestOLSInterpolatesTrainingMeanProperty(t *testing.T) {
	// OLS residuals sum to zero: prediction at the mean predictor equals mean y.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 20 + int(seed%10+10)%10
		x := make([]float64, n)
		y := make([]float64, n)
		var mx, my float64
		for i := range x {
			x[i] = rng.NormFloat64()
			y[i] = rng.NormFloat64() * 3
			mx += x[i]
			my += y[i]
		}
		mx /= float64(n)
		my /= float64(n)
		a, b := SimpleRegression(x, y)
		return math.Abs(a+b*mx-my) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
