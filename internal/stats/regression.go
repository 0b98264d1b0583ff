package stats

import (
	"fmt"
	"math"
)

// LinearModel holds coefficients of a fitted ordinary-least-squares model
// y = b0 + b1*x1 + ... + bk*xk. Chapter 3's regression predictor fits
// realy ~ b0 + b1*synthx + b2*synthy + b3*realx with this type.
type LinearModel struct {
	Coef []float64 // Coef[0] is the intercept.
}

// FitOLS fits y = b0 + sum b_i x_i by solving the normal equations with
// Gaussian elimination (partial pivoting). Each row of x is one observation.
// A tiny ridge term keeps near-singular designs (e.g. duplicated predictor
// columns from flat curve segments) solvable.
func FitOLS(x [][]float64, y []float64) (*LinearModel, error) {
	n := len(x)
	if n == 0 || n != len(y) {
		return nil, fmt.Errorf("stats: FitOLS needs matching non-empty x (%d) and y (%d)", n, len(y))
	}
	k := len(x[0]) + 1 // +1 intercept
	// Build X'X and X'y.
	xtx := make([][]float64, k)
	for i := range xtx {
		xtx[i] = make([]float64, k)
	}
	xty := make([]float64, k)
	row := make([]float64, k)
	for i := 0; i < n; i++ {
		if len(x[i]) != k-1 {
			return nil, fmt.Errorf("stats: FitOLS row %d has %d predictors, want %d", i, len(x[i]), k-1)
		}
		row[0] = 1
		copy(row[1:], x[i])
		for a := 0; a < k; a++ {
			for b := 0; b < k; b++ {
				xtx[a][b] += float64(row[a] * row[b])
			}
			xty[a] += float64(row[a] * y[i])
		}
	}
	const ridge = 1e-9
	for a := 0; a < k; a++ {
		xtx[a][a] += ridge
	}
	coef, err := solveLinear(xtx, xty)
	if err != nil {
		return nil, err
	}
	return &LinearModel{Coef: coef}, nil
}

// Predict evaluates the model at predictor vector x.
func (m *LinearModel) Predict(x []float64) float64 {
	y := m.Coef[0]
	for i, v := range x {
		y += float64(m.Coef[i+1] * v)
	}
	return y
}

// solveLinear solves Ax=b in place via Gaussian elimination with partial
// pivoting. A and b are consumed.
func solveLinear(a [][]float64, b []float64) ([]float64, error) {
	n := len(a)
	for col := 0; col < n; col++ {
		// Pivot.
		p := col
		for r := col + 1; r < n; r++ {
			if math.Abs(a[r][col]) > math.Abs(a[p][col]) {
				p = r
			}
		}
		if math.Abs(a[p][col]) < 1e-15 {
			return nil, fmt.Errorf("stats: singular system at column %d", col)
		}
		a[col], a[p] = a[p], a[col]
		b[col], b[p] = b[p], b[col]
		inv := 1 / a[col][col]
		for r := col + 1; r < n; r++ {
			f := a[r][col] * inv
			if f == 0 {
				continue
			}
			for c := col; c < n; c++ {
				a[r][c] -= float64(f * a[col][c])
			}
			b[r] -= float64(f * b[col])
		}
	}
	x := make([]float64, n)
	for r := n - 1; r >= 0; r-- {
		s := b[r]
		for c := r + 1; c < n; c++ {
			s -= float64(a[r][c] * x[c])
		}
		x[r] = s / a[r][r]
	}
	return x, nil
}

// SimpleRegression fits y = a + b*x and returns (a, b). It is used by the
// graph-growth predictor when only one predictor is available.
func SimpleRegression(x, y []float64) (a, b float64) {
	n := float64(len(x))
	if n == 0 {
		return 0, 0
	}
	var sx, sy, sxx, sxy float64
	for i := range x {
		sx += x[i]
		sy += y[i]
		sxx += float64(x[i] * x[i])
		sxy += float64(x[i] * y[i])
	}
	den := float64(n*sxx) - float64(sx*sx)
	if den == 0 {
		return sy / n, 0
	}
	b = (float64(n*sxy) - float64(sx*sy)) / den
	a = (sy - float64(b*sx)) / n
	return a, b
}
