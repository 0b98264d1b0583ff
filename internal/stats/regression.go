package stats

// SimpleRegression fits y = a + b*x by least squares and returns (a, b).
// The graph-growth regression predictor fits its learned residual with it.
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
