// Package growth implements chapter 3: predicting measures of densifying
// graphs. A non-graph dataset is turned into a series of graphs of
// exponentially increasing edge count by lowering a similarity threshold;
// measures are computed cheaply on a small node sample across all densities
// and on the full graph at sparse densities, and a model extrapolates the
// expensive dense-graph measures (Algorithm 1).
//
// The pipeline: PairSims scores and sorts all row pairs once (the "graph
// growth" edge order), DensitySchedule cuts the order into an exponential
// density ladder, and Run executes Algorithm 1 for a Config-named measure
// with one of two Predictor strategies — TranslationScaling shifts the
// sample curve onto the full-graph anchor points, Regression fits the
// sample-to-full mapping and is additionally anchored at the analytic
// complete-graph value, where every measure is known in closed form.
// Accuracy is reported against the measured truth as the relative error of
// Table 3.2/3.3. Sampling supports the §3.4 methods, including the
// stratified-by-cluster default (internal/cluster), so heavy-tailed
// datasets keep their dense cores represented.
package growth

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"plasmahd/internal/cluster"
	"plasmahd/internal/graph"
	"plasmahd/internal/stats"
	"plasmahd/internal/vec"
)

// PairSim is one scored pair of rows.
type PairSim struct {
	I, J int32
	S    float64
}

// PairSims computes all pairwise cosine similarities of the rows of x
// (columns are expected to be z-normed first, as in §3.5) and returns them
// sorted by descending similarity — the "graph growth" edge order.
func PairSims(x [][]float64) []PairSim {
	n := len(x)
	rows := make([]vec.Sparse, n)
	for i := range x {
		rows[i] = vec.FromDense(x[i])
	}
	norms := make([]float64, n)
	for i, r := range rows {
		norms[i] = r.Norm()
	}
	out := make([]PairSim, 0, n*(n-1)/2)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			var s float64
			if norms[i] > 0 && norms[j] > 0 {
				s = vec.Dot(rows[i], rows[j]) / (norms[i] * norms[j])
			}
			out = append(out, PairSim{I: int32(i), J: int32(j), S: s})
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].S > out[b].S })
	return out
}

// Similarities extracts just the similarity values (for Fig 3.18).
func Similarities(pairs []PairSim) []float64 {
	s := make([]float64, len(pairs))
	for i, p := range pairs {
		s[i] = p.S
	}
	return s
}

// DensitySchedule returns the §3.5 edge-count schedule 2^i·n, capped and
// terminated exactly at the complete-graph edge count C(n,2).
func DensitySchedule(n int) []int {
	maxM := n * (n - 1) / 2
	var out []int
	for m := n; m < maxM; m *= 2 {
		out = append(out, m)
	}
	return append(out, maxM)
}

// FractionSchedule converts an edge schedule on an n-vertex graph to
// density fractions m/C(n,2), the scale-free axis that aligns sample and
// full-graph series of different sizes.
func FractionSchedule(n int) []float64 {
	maxM := float64(n * (n - 1) / 2)
	sched := DensitySchedule(n)
	out := make([]float64, len(sched))
	for i, m := range sched {
		out[i] = float64(m) / maxM
	}
	return out
}

// GraphAtEdges builds the graph of the m most-similar pairs.
func GraphAtEdges(pairs []PairSim, n, m int) *graph.Graph {
	if m > len(pairs) {
		m = len(pairs)
	}
	edges := make([][2]int32, m)
	for k := 0; k < m; k++ {
		edges[k] = [2]int32{pairs[k].I, pairs[k].J}
	}
	return graph.FromEdges(n, edges)
}

// Method selects one of the three §3.3 sampling methods.
type Method int

// Sampling methods.
const (
	Random Method = iota
	Concentrated
	Stratified
)

// String implements fmt.Stringer.
func (m Method) String() string {
	switch m {
	case Concentrated:
		return "concentrated"
	case Stratified:
		return "stratified"
	}
	return "random"
}

// Sample selects p row indices from x by the chosen method.
func Sample(x [][]float64, p int, m Method, seed int64) []int {
	n := len(x)
	if p >= n {
		idx := make([]int, n)
		for i := range idx {
			idx[i] = i
		}
		return idx
	}
	rng := rand.New(rand.NewSource(seed))
	switch m {
	case Concentrated:
		return sampleConcentrated(x, p, rng)
	case Stratified:
		return sampleStratified(x, p, rng, seed)
	default:
		return rng.Perm(n)[:p]
	}
}

// sampleConcentrated picks a random point and its p-1 nearest neighbours by
// cosine similarity ("snowball"-like blob sampling).
func sampleConcentrated(x [][]float64, p int, rng *rand.Rand) []int {
	n := len(x)
	center := rng.Intn(n)
	cRow := vec.FromDense(x[center])
	type scored struct {
		idx int
		s   float64
	}
	all := make([]scored, 0, n-1)
	for i := 0; i < n; i++ {
		if i == center {
			continue
		}
		all = append(all, scored{i, vec.Cosine(cRow, vec.FromDense(x[i]))})
	}
	sort.Slice(all, func(a, b int) bool { return all[a].s > all[b].s })
	out := make([]int, 0, p)
	out = append(out, center)
	for _, sc := range all[:p-1] {
		out = append(out, sc.idx)
	}
	sort.Ints(out)
	return out
}

// sampleStratified clusters the data into 10 strata with k-means and draws
// from each in proportion to its size.
func sampleStratified(x [][]float64, p int, rng *rand.Rand, seed int64) []int {
	k := 10
	if k > len(x) {
		k = len(x)
	}
	res := cluster.KMeans(x, k, 30, seed)
	members := res.Members()
	var out []int
	for _, m := range members {
		quota := int(math.Round(float64(len(m)) * float64(p) / float64(len(x))))
		if quota > len(m) {
			quota = len(m)
		}
		perm := rng.Perm(len(m))
		for i := 0; i < quota; i++ {
			out = append(out, m[perm[i]])
		}
	}
	// Round-off correction to hit exactly p.
	for len(out) > p {
		out = out[:len(out)-1]
	}
	chosen := make(map[int]bool, len(out))
	for _, i := range out {
		chosen[i] = true
	}
	for len(out) < p {
		i := rng.Intn(len(x))
		if !chosen[i] {
			chosen[i] = true
			out = append(out, i)
		}
	}
	sort.Ints(out)
	return out
}

// SubMatrix extracts the selected rows of x.
func SubMatrix(x [][]float64, idx []int) [][]float64 {
	out := make([][]float64, len(idx))
	for k, i := range idx {
		out[k] = x[i]
	}
	return out
}

// MeasureCurve evaluates a measure across a density schedule, returning the
// values and per-point runtimes (the Figs 3.19-3.21 series).
func MeasureCurve(pairs []PairSim, n int, schedule []int, m graph.MeasureFunc) ([]float64, []time.Duration) {
	vals := make([]float64, len(schedule))
	times := make([]time.Duration, len(schedule))
	for i, edges := range schedule {
		g := GraphAtEdges(pairs, n, edges)
		start := time.Now()
		vals[i] = m(g)
		times[i] = time.Since(start)
	}
	return vals, times
}

// CompleteValue returns the closed-form value of a named measure on the
// complete graph K_n — the §3.4 analytic endpoint translation-scaling
// anchors to ("instead of exhaustive enumeration, the simple result
// C(n,3) can be returned").
func CompleteValue(measure string, n int) (float64, bool) {
	fn := float64(n)
	switch measure {
	case "triangles":
		return fn * (fn - 1) * (fn - 2) / 6, true
	case "edges":
		return fn * (fn - 1) / 2, true
	case "diameter":
		if n <= 1 {
			return 0, true
		}
		return 1, true
	case "clique_number":
		return fn, true
	case "number_of_cliques":
		return 1, true
	case "average_clustering":
		return 1, true
	case "number_connected_components":
		return 1, true
	case "largest_connected_component":
		return fn, true
	case "mean_core_number":
		return fn - 1, true
	case "mean_degree_centrality":
		return 1, true
	case "mean_average_neighbor_degree":
		return fn - 1, true
	case "mean_betweenness_centrality":
		return 0, true
	case "eigenvalues":
		return fn - 1, true
	}
	return 0, false
}

// Predictor selects one of the two §3.4 prediction methods.
type Predictor int

// Prediction methods.
const (
	TranslationScaling Predictor = iota
	Regression
)

// String implements fmt.Stringer.
func (p Predictor) String() string {
	if p == Regression {
		return "regression"
	}
	return "translation-scaling"
}

// normCurve maps a curve onto [0,1] by its endpoints; a flat curve falls
// back to the x positions so the mapping stays defined.
func normCurve(y []float64, xs []float64) []float64 {
	y0, yEnd := y[0], y[len(y)-1]
	out := make([]float64, len(y))
	if yEnd == y0 {
		x0, xEnd := xs[0], xs[len(xs)-1]
		for i := range out {
			if xEnd != x0 {
				out[i] = (xs[i] - x0) / (xEnd - x0)
			}
		}
		return out
	}
	for i := range out {
		out[i] = (y[i] - y0) / (yEnd - y0)
	}
	return out
}

// predictTS linearly maps the sample curve onto the real curve's endpoints
// (§3.4 Translation-Scaling): the real curve's first point is known from the
// sparse half and its last point is the analytic complete-graph value. In
// normalized coordinates the prediction is simply the sample curve itself.
func predictTS(synthX, synthY []float64, realY0, realYEnd float64, predictIdx []int) []float64 {
	syN := normCurve(synthY, synthX)
	out := make([]float64, 0, len(predictIdx))
	for _, i := range predictIdx {
		out = append(out, realY0+float64(syN[i]*(realYEnd-realY0)))
	}
	return out
}

// predictRegression is the §3.4 regression predictor adapted to the
// aligned-density design (where realx == synthx, collapsing the paper's
// four predictors to two): it fits the residual between the normalized real
// curve and the translated sample curve over the training half (discretized
// into q linear pieces, as in the paper), then extrapolates that learned
// finite-size correction into the dense half with a linear decay to the
// analytically pinned complete-graph endpoint. Translation-scaling is the
// zero-residual special case, so regression can only lose to it through
// extrapolation error of the learned correction — exactly the paper's
// framing ("takes into account the entire training spectrum rather than
// just curve endpoints").
func predictRegression(synthX, synthY, realY []float64, trainCut, q int, realY0, realYEnd float64, predictIdx []int) []float64 {
	syN := normCurve(synthY, synthX)
	ryN := make([]float64, len(realY))
	if realYEnd != realY0 {
		for i := range realY {
			ryN[i] = (realY[i] - realY0) / (realYEnd - realY0)
		}
	}
	xs := make([]float64, 0, q)
	rs := make([]float64, 0, q)
	for k := 0; k < q; k++ {
		f := float64(k) / float64(q-1)
		pos := float64(f * float64(trainCut-1))
		i := int(pos)
		frac := pos - float64(i)
		if i+1 >= trainCut {
			i = trainCut - 2
			frac = 1
			if i < 0 {
				i, frac = 0, 0
			}
		}
		interp := func(v []float64) float64 {
			if i+1 < len(v) {
				return float64(v[i]*(1-frac)) + float64(v[i+1]*frac)
			}
			return v[i]
		}
		xs = append(xs, interp(synthX))
		rs = append(rs, interp(ryN)-interp(syN))
	}
	// The correction carried into the dense half is the fitted residual at
	// the training boundary — the best-supported estimate of the systematic
	// sample-vs-real offset — not the fitted slope, whose extrapolation
	// from the narrow sparse x-range is unstable.
	a, b := stats.SimpleRegression(xs, rs)
	xc := synthX[trainCut-1] // training boundary in density space
	boundaryResidual := a + float64(b*xc)
	out := make([]float64, 0, len(predictIdx))
	for _, i := range predictIdx {
		x := synthX[i]
		// Full strength at the training boundary, fading linearly to zero
		// at the complete graph (x = 1) where the value is known exactly.
		decay := 1.0
		if xc < 1 {
			decay = (1 - x) / (1 - xc)
		}
		if decay < 0 {
			decay = 0
		}
		if decay > 1 {
			decay = 1
		}
		yN := syN[i] + float64(boundaryResidual*decay)
		out = append(out, realY0+float64(yN*(realYEnd-realY0)))
	}
	return out
}

// Config parameterizes one Algorithm 1 run.
type Config struct {
	SampleSize int       // p (paper: 1000)
	Method     Method    // sampling method
	Predictor  Predictor // prediction method
	Measure    string    // measure name from graph.Measures
	Pieces     int       // q discretization (paper: 100)
	LogSpace   bool      // model log10(1+y), the paper's choice for triangles
	Seed       int64
}

// DefaultConfig mirrors the paper's parameters scaled for the sample size.
func DefaultConfig(measure string) Config {
	return Config{SampleSize: 1000, Method: Random, Predictor: Regression,
		Measure: measure, Pieces: 100, LogSpace: measure == "triangles", Seed: 1}
}

// Outcome is the result of one Algorithm 1 run.
type Outcome struct {
	Fractions []float64 // shared density fractions
	SampleY   []float64 // measure on the sample series (all densities)
	RealY     []float64 // measure on the full series (all densities; the
	// dense half is ground truth computed only for evaluation)
	PredY    []float64 // predictions for the dense half
	TrainCut int       // index where the dense half begins
	// Timings for the Fig 3.21 speedup analysis.
	TrainTime time.Duration // sample sweep + sparse-half full sweep
	DenseTime time.Duration // dense-half full sweep (what prediction avoids)
	// Errors in the paper's Table 3.2 metric: relative error of
	// log(measure), mean and standard deviation over the dense half.
	ErrMean, ErrStd float64
}

// Run executes Algorithm 1 on dataset x (rows = points): sample, densify
// both series, train, predict the dense half, and evaluate against ground
// truth.
func Run(x [][]float64, cfg Config) (*Outcome, error) {
	n := len(x)
	if n < 8 {
		return nil, fmt.Errorf("growth: dataset too small (%d rows)", n)
	}
	mfn, ok := graph.Measures[cfg.Measure]
	if !ok {
		return nil, fmt.Errorf("growth: unknown measure %q", cfg.Measure)
	}
	if cfg.Pieces < 2 {
		cfg.Pieces = 100
	}
	p := cfg.SampleSize
	if p >= n {
		p = n / 2
	}
	if p < 4 {
		p = 4
	}

	// Line 1: node-sampled subset.
	idx := Sample(x, p, cfg.Method, cfg.Seed)
	sx := SubMatrix(x, idx)

	// Shared density fractions from the full graph's schedule.
	fracs := FractionSchedule(n)
	steps := len(fracs)
	trainCut := steps / 2
	if trainCut < 2 {
		trainCut = 2
	}

	fullPairs := PairSims(x)
	samplePairs := PairSims(sx)

	toEdges := func(f float64, nn int) int {
		m := int(math.Round(f * float64(nn*(nn-1)/2)))
		if m < 1 {
			m = 1
		}
		return m
	}

	trainStart := time.Now()
	// Lines 2-3: sample series across all densities.
	sampleY := make([]float64, steps)
	for i, f := range fracs {
		g := GraphAtEdges(samplePairs, p, toEdges(f, p))
		sampleY[i] = mfn(g)
	}
	// Line 4: full series on the sparse half only.
	realY := make([]float64, steps)
	for i := 0; i < trainCut; i++ {
		g := GraphAtEdges(fullPairs, n, toEdges(fracs[i], n))
		realY[i] = mfn(g)
	}
	trainTime := time.Since(trainStart)

	// Ground truth for the dense half (computed here only to evaluate the
	// prediction; this is the cost Fig 3.21 shows prediction avoiding).
	denseStart := time.Now()
	for i := trainCut; i < steps; i++ {
		g := GraphAtEdges(fullPairs, n, toEdges(fracs[i], n))
		realY[i] = mfn(g)
	}
	denseTime := time.Since(denseStart)

	tx := func(v float64) float64 {
		if cfg.LogSpace {
			return math.Log10(1 + v)
		}
		return v
	}
	sY := make([]float64, steps)
	rY := make([]float64, steps)
	for i := 0; i < steps; i++ {
		sY[i] = tx(sampleY[i])
		rY[i] = tx(realY[i])
	}

	predictIdx := make([]int, 0, steps-trainCut)
	for i := trainCut; i < steps; i++ {
		predictIdx = append(predictIdx, i)
	}

	completeV, haveComplete := CompleteValue(cfg.Measure, n)
	if !haveComplete {
		// Only hit for measures without a closed form: fall back to the
		// sample's own complete value (exact in shape, biased in scale).
		completeV = sampleY[steps-1]
	}
	yEnd := tx(completeV)

	var predT []float64
	switch cfg.Predictor {
	case TranslationScaling:
		predT = predictTS(fracs, sY, rY[0], yEnd, predictIdx)
	default:
		predT = predictRegression(fracs, sY, rY, trainCut, cfg.Pieces, rY[0], yEnd, predictIdx)
	}

	// Errors in transformed (log) space, per Table 3.2.
	actualT := make([]float64, len(predictIdx))
	for k, i := range predictIdx {
		actualT[k] = rY[i]
	}
	errs := stats.RelativeErrors(predT, actualT)

	// Back-transform predictions for presentation.
	pred := make([]float64, len(predT))
	for i, v := range predT {
		if cfg.LogSpace {
			pred[i] = math.Pow(10, v) - 1
		} else {
			pred[i] = v
		}
	}

	return &Outcome{
		Fractions: fracs,
		SampleY:   sampleY,
		RealY:     realY,
		PredY:     pred,
		TrainCut:  trainCut,
		TrainTime: trainTime,
		DenseTime: denseTime,
		ErrMean:   stats.Mean(errs),
		ErrStd:    stats.StdDev(errs),
	}, nil
}
