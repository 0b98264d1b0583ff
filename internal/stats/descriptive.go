package stats

import "math"

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the population variance of xs.
func Variance(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := Mean(xs)
	var s float64
	for _, x := range xs {
		d := x - m
		s += float64(d * d)
	}
	return s / float64(len(xs))
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// Histogram is a fixed-width binning of a sample, used for the similarity
// distributions of Fig 3.18 and the triangle vertex-cover histogram of
// Fig 2.5b.
type Histogram struct {
	Lo     float64 `json:"lo"`
	Hi     float64 `json:"hi"`
	Counts []int   `json:"counts"`
}

// NewHistogram bins xs into n equal-width bins over [lo, hi]. Values outside
// the range are clamped into the end bins. A non-positive bin count yields
// an empty histogram instead of panicking — handler-side validation is the
// polite gate, but the library must not turn a crafted request into a
// `make([]int, n<0)` crash.
func NewHistogram(xs []float64, n int, lo, hi float64) *Histogram {
	if n < 0 {
		n = 0
	}
	h := &Histogram{Lo: lo, Hi: hi, Counts: make([]int, n)}
	if hi <= lo || n == 0 {
		return h
	}
	w := (hi - lo) / float64(n)
	for _, x := range xs {
		i := int((x - lo) / w)
		if i < 0 {
			i = 0
		}
		if i >= n {
			i = n - 1
		}
		h.Counts[i]++
	}
	return h
}

// BinCenter returns the midpoint of bin i.
func (h *Histogram) BinCenter(i int) float64 {
	w := (h.Hi - h.Lo) / float64(len(h.Counts))
	return h.Lo + float64(w*(float64(i)+0.5))
}

// Total returns the number of binned samples.
func (h *Histogram) Total() int {
	t := 0
	for _, c := range h.Counts {
		t += c
	}
	return t
}

// RelativeErrors returns the per-point relative errors used to compute the
// Table 3.2 mean and standard deviation columns.
func RelativeErrors(pred, actual []float64) []float64 {
	out := make([]float64, 0, len(pred))
	for i := range pred {
		if actual[i] == 0 {
			continue
		}
		out = append(out, math.Abs(pred[i]-actual[i])/math.Abs(actual[i]))
	}
	return out
}

// ZNorm centers each column of x to zero mean and unit variance in place,
// the per-attribute normalization applied to every chapter 3 dataset.
// Constant columns are left centered at zero.
func ZNorm(x [][]float64) {
	if len(x) == 0 {
		return
	}
	d := len(x[0])
	for j := 0; j < d; j++ {
		var sum float64
		for i := range x {
			sum += x[i][j]
		}
		mean := sum / float64(len(x))
		var ss float64
		for i := range x {
			dv := x[i][j] - mean
			ss += float64(dv * dv)
		}
		sd := math.Sqrt(ss / float64(len(x)))
		for i := range x {
			x[i][j] -= mean
			if sd > 0 {
				x[i][j] /= sd
			}
		}
	}
}
