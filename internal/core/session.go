// Package core implements PLASMA-HD itself (chapter 2): interactive probe
// sessions over a dataset, the knowledge cache shared between probes, the
// cumulative APSS curve with error bars that guides threshold selection,
// incremental partial-result estimates, and the dimensionless visual cues
// (triangle histograms and density profiles) derived from the cache without
// re-accessing the source data.
package core

import (
	"math"
	"sync"
	"sync/atomic"
	"time"

	"plasmahd/internal/bayeslsh"
	"plasmahd/internal/graph"
	"plasmahd/internal/vec"
)

// Session is one PLASMA-HD exploration of a dataset: the workflow loop of
// Fig 2.1 (probe at t1 → inspect estimates and cues → choose next t). Its
// state is its knowledge cache — the dataset, the sketches, the pair
// evidence and the probe history — plus the memoized cue layer derived
// from it.
//
// A Session is safe for concurrent use: Probe calls may overlap (they share
// the knowledge cache, whose pair evidence only grows under concurrency),
// the curve/cue readers may run while probes are in flight, and AppendRows
// may land between or during probes (appends are serialized; each probe
// captures one dataset view at its start, so it sees either the pre- or
// post-append state, never a torn one). A single probe returns identical
// results for any worker count, and overlapping probes leave the cache in
// the state a serial schedule would: what one cold probe at the lowest
// threshold leaves. Only a probe's own pair list may gain from a deeper
// probe running beside it — pairs that one finished can appear early.
type Session struct {
	Cache *bayeslsh.Cache

	// cueMu guards the memoized CueSet LRU (see CueSet in cues.go).
	cueMu    sync.Mutex
	cues     map[cueKey]*cueEntry
	cueOrder []cueKey

	// cueHits/cueMisses count CueSet lookups served from the LRU vs paid
	// with a threshold-graph materialization — the cache-effectiveness
	// signal surfaced on plasmad's /metrics.
	cueHits   atomic.Int64
	cueMisses atomic.Int64
}

// Dataset returns the session's current dataset view. The view is immutable
// — appends publish a new one — so callers may iterate it without locking;
// long computations should capture it once and use that view throughout.
func (s *Session) Dataset() *vec.Dataset { return s.Cache.Dataset() }

// AppendEpoch returns how many append batches the session has absorbed.
func (s *Session) AppendEpoch() int64 { return s.Cache.AppendEpoch() }

// AppendRows grows the session by a batch of new rows: the cache sketches
// them through the hash family it was built with and publishes the grown
// dataset with them. Rows must be in final form — validated, and
// L2-normalized for cosine data — exactly as the rows the session was
// created over; the server layer owns that normalization, mirroring its
// dataset-create path, which is what makes a grown session bit-identical
// to one created from the full data. Returns the batch's sketch wall time.
func (s *Session) AppendRows(rows []vec.Sparse) (time.Duration, error) {
	return s.Cache.AppendRows(rows)
}

// CueCacheStats reports how many CueSet lookups hit the memoized LRU and
// how many had to materialize a threshold graph.
func (s *Session) CueCacheStats() (hits, misses int64) {
	return s.cueHits.Load(), s.cueMisses.Load()
}

// NewSession sketches the dataset (the one-time start-up cost of Fig 2.9)
// and returns a session with an empty knowledge cache.
func NewSession(ds *vec.Dataset, p bayeslsh.Params, seed int64) *Session {
	return &Session{Cache: bayeslsh.NewCache(ds, p, seed)}
}

// Probe runs an all-pairs similarity probe at threshold t, extending the
// knowledge cache.
func (s *Session) Probe(t float64) (*bayeslsh.Result, error) {
	return s.probe(t, nil, 0)
}

// ProbeWorkers is Probe with a per-call worker-pool override (0 = the
// session's Params.Workers) — the per-request knob plasmad exposes. The
// override changes scheduling only; results are identical for any value.
func (s *Session) ProbeWorkers(t float64, workers int) (*bayeslsh.Result, error) {
	return s.probe(t, nil, workers)
}

func (s *Session) probe(t float64, progress bayeslsh.ProgressFunc, workers int) (*bayeslsh.Result, error) {
	return bayeslsh.SearchWorkers(s.Dataset(), t, s.Cache, progress, workers)
}

// ProbeCount returns the number of completed probes, repeats included.
func (s *Session) ProbeCount() int { return s.Cache.ProbeCount() }

// CurvePoint is one point of the cumulative APSS graph: the expected number
// of pairs with similarity ≥ Threshold, with a one-standard-deviation error
// bar from the per-pair posteriors.
type CurvePoint struct {
	Threshold float64 `json:"threshold"`
	Estimate  float64 `json:"estimate"`
	ErrBar    float64 `json:"errBar"`
}

// CumulativeAPSS evaluates the cumulative APSS curve on a threshold grid
// from the memoized pair posteriors — the §2.1 visualization. Uncertainty
// is tight above probed thresholds (concentrated pairs) and grows below
// them (pruned pairs carry partial evidence), reproducing the Fig 2.3/2.4
// error-bar asymmetry. The whole grid costs one counting pass over the pair
// store (Cache.MassAbove), and sessions with equal stores return bit-equal
// curves.
func (s *Session) CumulativeAPSS(grid []float64) []CurvePoint {
	est, varsum := s.Cache.MassAbove(grid, s.Cache.Rows())
	points := make([]CurvePoint, len(grid))
	for k, t := range grid {
		points[k] = CurvePoint{Threshold: t, Estimate: est[k], ErrBar: math.Sqrt(varsum[k])}
	}
	return points
}

// CurveAt evaluates a single cumulative-APSS point — the one-threshold
// convenience used by API handlers and cue summaries.
func (s *Session) CurveAt(t float64) CurvePoint {
	return s.CumulativeAPSS([]float64{t})[0]
}

// CachedPairs returns the number of candidate pairs memoized in the
// knowledge cache so far.
func (s *Session) CachedPairs() int { return s.Cache.Pairs.Len() }

// Thresholds returns the distinct probed thresholds in ascending order.
func (s *Session) Thresholds() []float64 { return s.Cache.Thresholds() }

// ThresholdGrid returns an inclusive uniform grid over [lo, hi]. Both
// endpoints always appear: steps below 2 are clamped to 2, so a degenerate
// request still covers the whole interval instead of silently dropping hi.
// A single-point grid is returned only when lo == hi.
func ThresholdGrid(lo, hi float64, steps int) []float64 {
	if lo == hi {
		return []float64{lo}
	}
	if steps < 2 {
		steps = 2
	}
	g := make([]float64, steps)
	for i := range g {
		g[i] = lo + (hi-lo)*float64(i)/float64(steps-1)
	}
	return g
}

// FindKnee returns the grid threshold with the sharpest bend in the
// log-scale cumulative curve — the "knee in steepness" the §2.2.2 user
// investigates next. The curve must be on an ascending grid; spacing may be
// non-uniform (each point's curvature is the second difference normalized
// by its local step sizes, so coarse regions are not inflated). Ties break
// explicitly toward the lowest threshold, and a curve with no bend at all
// (flat or straight in log space) returns the lowest grid threshold rather
// than an arbitrary interior point.
func FindKnee(curve []CurvePoint) float64 {
	if len(curve) == 0 {
		return 0
	}
	logv := make([]float64, len(curve))
	for i, p := range curve {
		logv[i] = math.Log1p(p.Estimate)
	}
	best, bestAt := 0.0, curve[0].Threshold
	for i := 1; i < len(curve)-1; i++ {
		hl := curve[i].Threshold - curve[i-1].Threshold
		hr := curve[i+1].Threshold - curve[i].Threshold
		if hl <= 0 || hr <= 0 {
			continue // malformed (non-ascending) grid segment
		}
		curvature := math.Abs((logv[i+1]-logv[i])/hr-(logv[i]-logv[i-1])/hl) / ((hl + hr) / 2)
		if curvature > best || (curvature == best && curve[i].Threshold < bestAt) {
			best = curvature
			bestAt = curve[i].Threshold
		}
	}
	return bestAt
}

// ThresholdGraph returns the similarity graph at threshold t, materialized
// from the knowledge cache alone — no access to the source data D, as
// required for the interactive cue loop of Fig 2.1. Pairs carry their MAP
// estimates; pairs never examined contribute no edge. The graph comes from
// the memoized CueSet layer, so repeated same-threshold reads share one
// materialization; treat it as read-only.
func (s *Session) ThresholdGraph(t float64) *graph.Graph {
	return s.CueSet(t).Graph()
}

// SketchTime reports the initial sketch generation cost (Fig 2.9).
func (s *Session) SketchTime() time.Duration { return s.Cache.SketchTime }

// ProcessTime reports the total probe processing time so far.
func (s *Session) ProcessTime() time.Duration { return s.Cache.ProcessTime() }

// CommunityClarity scores how clearly a threshold graph reveals planted
// communities (Fig 2.2): the fraction of edges that are intra-community,
// and the fraction of vertices that are non-isolated. Community structure
// is "clear" when both are high — too strict a threshold isolates vertices,
// too loose a threshold swamps the partition with inter-community edges.
func CommunityClarity(g *graph.Graph, labels []int) (intraFrac, coveredFrac float64) {
	intra, total := 0, 0
	covered := 0
	for v := 0; v < g.N(); v++ {
		if g.Degree(v) > 0 {
			covered++
		}
		for _, w := range g.Neighbors(v) {
			if int(w) < v {
				continue
			}
			total++
			if labels[v] == labels[w] {
				intra++
			}
		}
	}
	if total > 0 {
		intraFrac = float64(intra) / float64(total)
	}
	if g.N() > 0 {
		coveredFrac = float64(covered) / float64(g.N())
	}
	return intraFrac, coveredFrac
}

// IncrementalSnapshot is one partial-result report during a probe: the
// extrapolated number-of-pairs estimates at each target threshold after
// processing a prefix of the data (Figs 2.6-2.8).
type IncrementalSnapshot struct {
	PercentProcessed float64
	Estimates        map[float64]float64
}

// ProbeIncremental runs a probe at t1 on a fresh view of the session,
// reporting extrapolated estimates at the target thresholds after each
// snapshot interval. After k of n rows, all pairs within the first k rows
// have been decided, so the full-data estimate scales by C(n,2)/C(k,2).
func (s *Session) ProbeIncremental(t1 float64, targets []float64, snapshots int) ([]IncrementalSnapshot, error) {
	n := s.Dataset().N()
	if snapshots < 1 {
		snapshots = 10
	}
	interval := n / snapshots
	if interval < 1 {
		interval = 1
	}
	var out []IncrementalSnapshot
	progress := func(rows, total, _ int) {
		if rows%interval != 0 && rows != total {
			return
		}
		if rows < 2 {
			return
		}
		snap := IncrementalSnapshot{
			PercentProcessed: 100 * float64(rows) / float64(total),
			Estimates:        make(map[float64]float64, len(targets)),
		}
		scale := float64(total) * float64(total-1) / (float64(rows) * float64(rows-1))
		// The probe has decided every pair within the first rows rows; the
		// batch it is in may already have written pairs beyond them.
		est, _ := s.Cache.MassAbove(targets, rows)
		for k, t2 := range targets {
			snap.Estimates[t2] = est[k] * scale
		}
		out = append(out, snap)
	}
	if _, err := s.probe(t1, progress, 0); err != nil {
		return nil, err
	}
	return out, nil
}

// CachingStep is one threshold of a knowledge-caching workload comparison.
type CachingStep struct {
	Threshold                    float64
	CachedTime, UncachedTime     time.Duration
	CachedHashes, UncachedHashes int64
	SpeedupPct                   float64 // hash-comparison savings, 0-100
}

// KnowledgeCachingWorkload reproduces the Fig 2.10 experiment: run the
// threshold sequence once with a shared knowledge cache and once with a
// fresh cache per query, reporting per-step costs. Savings are reported on
// hash comparisons, the deterministic cost driver, alongside wall time.
//
// The cached arm is inherently sequential (each probe reuses the evidence
// of the last); the uncached baseline probes run on identical engine
// settings, each on an uncontended machine, so the per-step time columns
// compare like for like (see sweepFresh).
func KnowledgeCachingWorkload(ds *vec.Dataset, p bayeslsh.Params, thresholds []float64, seed int64) ([]CachingStep, error) {
	shared := NewSession(ds, p, seed)
	steps := make([]CachingStep, len(thresholds))
	for i, t := range thresholds {
		res, err := shared.Probe(t)
		if err != nil {
			return nil, err
		}
		steps[i].Threshold = t
		steps[i].CachedTime = res.ProcessTime
		steps[i].CachedHashes = res.HashesCompared
	}
	uncached, err := sweepFresh(ds, p, thresholds, seed)
	if err != nil {
		return nil, err
	}
	for i, res := range uncached {
		steps[i].UncachedTime = res.ProcessTime
		steps[i].UncachedHashes = res.HashesCompared
		if res.HashesCompared > 0 {
			steps[i].SpeedupPct = 100 * (1 - float64(steps[i].CachedHashes)/float64(res.HashesCompared))
		}
	}
	return steps, nil
}

// sweepFresh probes each threshold on its own fresh session — the uncached
// baseline arm of the Fig 2.10 and §2.2.2 comparisons. Each baseline probe
// uses the exact same engine configuration as the cached arm (including
// its worker pool), and the probes run one at a time so per-step
// ProcessTime is measured on an uncontended machine, like for like with
// the cached arm. Running them concurrently would either starve the inner
// pools or bill the sweep's contention to the baseline; sessions remain
// free to fan probes out concurrently when measurement fidelity is not at
// stake (see TestConcurrentProbesSharedCache).
func sweepFresh(ds *vec.Dataset, p bayeslsh.Params, thresholds []float64, seed int64) ([]*bayeslsh.Result, error) {
	results := make([]*bayeslsh.Result, len(thresholds))
	for i, t := range thresholds {
		fresh := NewSession(ds, p, seed)
		res, err := fresh.Probe(t)
		if err != nil {
			return nil, err
		}
		results[i] = res
	}
	return results, nil
}

// InteractiveScenario reproduces §2.2.2: probe at the user's first
// threshold, find the knee, probe there, and compare the two-probe cost
// against the paper's brute-force alternative of "iteratively computing a
// pair-count estimate for each threshold value" — one independent probe
// per grid point (13.3s vs 2.2s in the paper's example, an 83% saving).
type InteractiveScenario struct {
	FirstThreshold, KneeThreshold float64
	TwoProbeTime                  time.Duration
	BruteForceTime                time.Duration
	SavingsPct                    float64
	Curve                         []CurvePoint
	TruthCurve                    []int
}

// RunInteractiveScenario executes the scenario on a fresh session.
func RunInteractiveScenario(ds *vec.Dataset, p bayeslsh.Params, first float64, grid []float64, seed int64) (*InteractiveScenario, error) {
	s := NewSession(ds, p, seed)
	start := time.Now()
	if _, err := s.Probe(first); err != nil {
		return nil, err
	}
	curve := s.CumulativeAPSS(grid)
	knee := FindKnee(curve)
	if knee != first {
		if _, err := s.Probe(knee); err != nil {
			return nil, err
		}
	}
	twoProbe := time.Since(start)

	// Brute-force alternative: an independent, uncached probe per grid
	// threshold on identical engine settings. Probe processing time only —
	// summing per-probe ProcessTime models the sequential alternative the
	// paper describes; sketch generation is a one-time cost excluded from
	// both sides.
	var bf time.Duration
	uncached, err := sweepFresh(ds, p, grid, seed)
	if err != nil {
		return nil, err
	}
	for _, res := range uncached {
		bf += res.ProcessTime
	}
	truth := bayeslsh.ExactCurve(ds, grid)

	out := &InteractiveScenario{
		FirstThreshold: first,
		KneeThreshold:  knee,
		TwoProbeTime:   twoProbe,
		BruteForceTime: bf,
		Curve:          s.CumulativeAPSS(grid),
		TruthCurve:     truth,
	}
	if bf > 0 {
		out.SavingsPct = 100 * (1 - float64(twoProbe)/float64(bf))
	}
	return out, nil
}
