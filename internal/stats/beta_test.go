package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func approx(t *testing.T, got, want, tol float64, msg string) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Errorf("%s: got %v want %v (tol %v)", msg, got, want, tol)
	}
}

func TestRegIncBetaUniform(t *testing.T) {
	// I_x(1,1) is the uniform CDF: identity on [0,1].
	for _, x := range []float64{0, 0.1, 0.25, 0.5, 0.77, 0.99, 1} {
		approx(t, RegIncBeta(x, 1, 1), x, 1e-12, "I_x(1,1)")
	}
}

func TestRegIncBetaSymmetricHalf(t *testing.T) {
	// For symmetric Beta(a,a), the median is 0.5.
	for _, a := range []float64{0.5, 1, 2, 5, 17, 100} {
		approx(t, RegIncBeta(0.5, a, a), 0.5, 1e-10, "I_0.5(a,a)")
	}
}

func TestRegIncBetaKnownValues(t *testing.T) {
	// I_x(2,2) = 3x^2 - 2x^3 (CDF of Beta(2,2)).
	for _, x := range []float64{0.1, 0.3, 0.5, 0.8} {
		want := 3*x*x - 2*x*x*x
		approx(t, RegIncBeta(x, 2, 2), want, 1e-12, "I_x(2,2)")
	}
	// I_x(1,b) = 1-(1-x)^b.
	for _, x := range []float64{0.2, 0.6} {
		for _, b := range []float64{1, 3, 7.5} {
			want := 1 - math.Pow(1-x, b)
			approx(t, RegIncBeta(x, 1, b), want, 1e-12, "I_x(1,b)")
		}
	}
}

func TestRegIncBetaSymmetryProperty(t *testing.T) {
	// I_x(a,b) = 1 - I_{1-x}(b,a), checked over random arguments.
	f := func(xr, ar, br uint16) bool {
		x := float64(xr%1000)/1000.0*0.998 + 0.001
		a := float64(ar%500)/10.0 + 0.1
		b := float64(br%500)/10.0 + 0.1
		lhs := RegIncBeta(x, a, b)
		rhs := 1 - RegIncBeta(1-x, b, a)
		return math.Abs(lhs-rhs) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestRegIncBetaMonotoneProperty(t *testing.T) {
	// CDFs are nondecreasing in x and bounded in [0,1].
	f := func(x1r, x2r, ar, br uint16) bool {
		x1 := float64(x1r%1001) / 1000.0
		x2 := float64(x2r%1001) / 1000.0
		if x1 > x2 {
			x1, x2 = x2, x1
		}
		a := float64(ar%300)/10.0 + 0.2
		b := float64(br%300)/10.0 + 0.2
		c1 := RegIncBeta(x1, a, b)
		c2 := RegIncBeta(x2, a, b)
		return c1 >= -1e-12 && c2 <= 1+1e-12 && c1 <= c2+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestBetaPosterior(t *testing.T) {
	d := NewBetaPosterior(7, 10)
	approx(t, d.Alpha, 8, 0, "alpha")
	approx(t, d.BetaP, 4, 0, "beta")
	approx(t, d.MAP(), 0.7, 1e-12, "MAP is m/n under uniform prior")
	approx(t, d.Mean(), 8.0/12.0, 1e-12, "mean")
	// Tail + CDF = 1.
	approx(t, d.Tail(0.6)+d.CDF(0.6), 1, 1e-12, "tail complement")
}

func TestBetaPosteriorConcentrates(t *testing.T) {
	// As n grows with fixed ratio, the posterior mass near the truth -> 1.
	prev := 0.0
	for _, n := range []int{10, 50, 200, 1000} {
		d := NewBetaPosterior(n*3/4, n)
		c := d.CDF(0.8) - d.CDF(0.7) // mass within 0.05 of the truth
		if c < prev-1e-9 {
			t.Errorf("concentration not improving: n=%d got %v prev %v", n, c, prev)
		}
		prev = c
	}
	if prev < 0.99 {
		t.Errorf("posterior at n=1000 insufficiently concentrated: %v", prev)
	}
}

func TestBetaMAPDegenerate(t *testing.T) {
	d := NewBetaPosterior(0, 0) // Beta(1,1): mode undefined, falls back to mean.
	approx(t, d.MAP(), 0.5, 1e-12, "uniform MAP fallback")
}
