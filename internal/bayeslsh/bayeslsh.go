// Package bayeslsh implements the BayesLSH-style all-pairs similarity search
// engine PLASMA-HD builds on (§2.2.1). Candidate pairs from an inverted
// index are compared hash-by-hash; a Bayesian posterior over the collision
// probability prunes unpromising pairs early (Eq 2.1) and stops hashing once
// the similarity estimate is concentrated (Eq 2.2). Unlike the original
// algorithm, every candidate's final (matches, hashes) state is memoized in
// a knowledge cache, and a later probe tests that stored evidence against
// its own prune bound before it compares anything: a pair the cache can
// already decide costs no hashes, and only a pair that survives the new
// bound resumes incremental comparison — the paper's crucial enhancement.
// The store is therefore a function of the lowest threshold probed: after
// any probe sequence, in any order, serial or concurrent, every pair holds
// the state one cold probe at that threshold would have left.
package bayeslsh

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"plasmahd/internal/lsh"
	"plasmahd/internal/par"
	"plasmahd/internal/stats"
	"plasmahd/internal/vec"
)

// Params are the inference and sketching knobs of BayesLSH.
type Params struct {
	// Epsilon bounds the false-negative probability of pruning (Eq 2.1).
	Epsilon float64
	// Delta is the similarity-estimate accuracy radius of Eq 2.2.
	Delta float64
	// Gamma bounds the probability the estimate is off by more than Delta.
	Gamma float64
	// MaxHashes is the sketch length; pairs still undecided after MaxHashes
	// are finalized with their MAP estimate.
	MaxHashes int
	// Step is the number of hashes compared per incremental round.
	Step int
	// MaxDFFrac skips features present in more than this fraction of rows
	// during candidate generation (the standard stop-word optimization of
	// all-pairs search); such features carry negligible TF/IDF weight.
	MaxDFFrac float64
	// Lite enables BayesLSH-Lite behaviour: pairs that survive pruning have
	// their similarity computed exactly instead of estimated from hashes.
	// Pruned pairs keep posterior-only evidence, so the cumulative curve
	// stays exact above the probed threshold and uncertain below it — the
	// Fig 2.3/2.4 asymmetry.
	Lite bool
	// Workers sets the candidate-evaluation parallelism of Search and the
	// fan-out width of the session-level grid sweeps. 0 or negative means
	// runtime.GOMAXPROCS(0), and a value above 256 runs 256 (maxWorkers).
	// Results are deterministic for any value: the same probe returns
	// byte-identical pairs with 1 worker or 64.
	Workers int
}

// maxWorkers is the ceiling on any worker count the engine runs. Counts
// arrive from clients (a create request's params, a probe's override), and
// a probe batches at least 4 rows a worker and runs up to one goroutine a
// row: an unbounded count would put every row of a session into one batch
// and start a goroutine per row.
const maxWorkers = 256

// clampWorkers caps a positive worker count at maxWorkers.
func clampWorkers(w int) int { return min(w, maxWorkers) }

// WorkerCount resolves Workers to a concrete pool size, at most maxWorkers.
func (p Params) WorkerCount() int {
	w := p.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	return clampWorkers(w)
}

// DefaultParams returns the parameter set used throughout the experiments.
func DefaultParams() Params {
	return Params{Epsilon: 0.03, Delta: 0.05, Gamma: 0.05, MaxHashes: 256, Step: 32, MaxDFFrac: 0.5, Lite: true}
}

func (p Params) schedulePoints() int { return (p.MaxHashes + p.Step - 1) / p.Step }

// scheduleCells is the number of evidence states (n, m ≤ n) on the hash
// schedule n = Step, 2·Step, …, MaxHashes: Σ(n+1), the size of the
// concentration table NewCache and DecodeSnapshot build and the bound on the
// distinct states MassAbove tallies. All points but the last are multiples
// of Step.
func (p Params) scheduleCells() int64 {
	full := int64(p.schedulePoints() - 1)
	return int64(p.Step)*full*(full+1)/2 + full + int64(p.MaxHashes) + 1
}

// maxScheduleCells is the largest schedule a cache is built for. A cell of
// the concentration table costs ≈ 1 µs, so the ceiling is ≈ 0.3 s of
// construction; the defaults are 1 160 cells. The last schedule point alone
// is MaxHashes+1 cells, so this caps MaxHashes as well.
const maxScheduleCells = 1 << 18

// Validate reports the first parameter the engine cannot run with. Params
// arrive from outside the program twice — a create request and a snapshot
// stream — and both go through here before a cache is built from them.
func (p Params) Validate() error {
	for _, f := range []struct {
		name string
		v    float64
	}{{"Epsilon", p.Epsilon}, {"Delta", p.Delta}, {"Gamma", p.Gamma}} {
		if !(f.v >= 0 && f.v <= 1) { // also rejects NaN
			return fmt.Errorf("%s %v out of range [0, 1]", f.name, f.v)
		}
	}
	if math.IsNaN(p.MaxDFFrac) || math.IsInf(p.MaxDFFrac, 0) {
		return fmt.Errorf("MaxDFFrac %v is not finite", p.MaxDFFrac)
	}
	if p.MaxHashes < 1 || p.MaxHashes > maxScheduleCells {
		return fmt.Errorf("MaxHashes %d out of range [1, %d]", p.MaxHashes, maxScheduleCells)
	}
	if p.Step < 1 || p.Step > p.MaxHashes {
		return fmt.Errorf("Step %d out of range [1, MaxHashes %d]", p.Step, p.MaxHashes)
	}
	if cells := p.scheduleCells(); cells > maxScheduleCells {
		return fmt.Errorf("MaxHashes %d with Step %d is a schedule of %d evidence states, at most %d", p.MaxHashes, p.Step, cells, maxScheduleCells)
	}
	return nil
}

// onSchedule reports whether n is a hash count evalCandidate can leave a
// pair at: a positive multiple of Step, or the final point MaxHashes.
func (p Params) onSchedule(n int32) bool {
	return n > 0 && int(n) <= p.MaxHashes && (int(n)%p.Step == 0 || int(n) == p.MaxHashes)
}

// PairState is the memoized evidence about one candidate pair: m of n hashes
// matched. Done pairs have a concentrated (or exhausted) estimate and are
// never compared again. A pair that is not Done was pruned at N hashes by
// the lowest threshold probed so far: any probe whose bound at N still
// covers M decides it from this state alone, and only a probe below that
// resumes hashing from N. In Lite mode, Done pairs additionally carry the
// exactly computed similarity.
type PairState struct {
	M, N     int32
	Done     bool
	HasExact bool
	Exact    float32
}

// PairKey packs an (i<j) row pair into a map key.
func PairKey(i, j int32) uint64 {
	if i > j {
		i, j = j, i
	}
	return uint64(uint32(i))<<32 | uint64(uint32(j))
}

// UnpackKey returns the (i, j) rows of a packed key.
func UnpackKey(k uint64) (int32, int32) {
	return int32(k >> 32), int32(k & 0xffffffff)
}

// Cache is PLASMA-HD's knowledge cache (§2.2.1) and the whole state of a
// probe session: the dataset, its sketches, the memoized per-pair
// hash-comparison states accumulated across probes, and the record of the
// probes that built them.
//
// A Cache is safe for concurrent probes: the pair table is a PairStore of
// per-row runs, each behind its own lock, with monotone writes; the
// concentration table is precomputed at construction, and the per-threshold
// prune bounds are built under a lock. The dataset and its sketch table are
// one immutable rowView behind an atomic pointer: each growth publishes a
// new view once, and each probe loads one view at its start, so in-flight
// probes see either the pre-append or post-append state, never a torn one.
type Cache struct {
	Params  Params
	Measure vec.Measure
	// Seed is the sketch-family seed the cache was built with; it rides
	// along in snapshots so a restored cache is identifiable and a re-sketch
	// from the same dataset would reproduce the same signatures.
	Seed int64

	// view is the published row state: the dataset, the append count and
	// the signatures. Once the cache is shared, only AppendRows replaces it,
	// under appendMu.
	view atomic.Pointer[rowView]

	// sketch extends a view by a batch of rows through the cache's hash
	// family. grow makes it on the cache's first growth, from (params,
	// seed, dim) alone: signatures are pure functions of (row, seed[, dim]),
	// so a cache restored from a snapshot sketches appended rows
	// byte-identically, and one that never grows builds no sketcher.
	sketch func(v rowView, rows []vec.Sparse, workers int) rowView

	// appendMu serializes growth with itself and with EncodeSnapshot, so a
	// snapshot's rows can never lag pairs written by a probe that already
	// saw the appended rows, and guards sketch. Nothing called while it is
	// held takes another lock of the cache's but a run's read lock.
	appendMu sync.Mutex

	// Pairs memoizes evidence for every candidate pair ever evaluated,
	// filed under the pair's larger row: the row whose candidates a probe
	// evaluates together, reading and writing that row's run under one lock
	// each. Pair identity is stable under appends (keys are row-id pairs and
	// rows are append-only), so accumulated evidence stays valid as the
	// dataset grows, and appended rows only add runs.
	Pairs *PairStore

	// SketchTime is the start-up cost of building the initial sketches
	// (the Fig 2.9 quantity); it is paid once per dataset. Append sketch
	// cost is reported per call by AppendRows, not accumulated here.
	SketchTime time.Duration

	// historyMu guards history, which SearchWorkers extends as each probe
	// finishes.
	historyMu sync.Mutex
	history   probeHistory

	// conc[k] marks (m at schedule point k) combinations whose posterior is
	// concentrated within Delta, and est[k][m] is the MAP similarity estimate
	// of that state (threshold-independent tables). pointOf[n] is the schedule
	// point hash count n sits at, -1 off the schedule: the per-pair paths
	// (stored-evidence test, Estimate) find k without dividing. Precomputed by
	// buildTables so probe workers share them read-only.
	conc    [][]bool
	est     [][]float64
	pointOf []int32
	// pruneMax caches, per threshold, the largest m at each schedule point
	// for which Eq 2.1 still prunes; pruneMu guards it across probes. It
	// holds at most maxPruneBounds thresholds.
	pruneMu  sync.Mutex
	pruneMax map[float64][]int32

	// idx is the published candidate index (see candIndex), built lazily on
	// the first probe — candidate generation is threshold-independent, so
	// every later probe on this cache reuses it. Each published value is
	// immutable; appends advance the pointer to an extended or rebuilt index
	// under idxMu (see candidateIndex).
	idxMu       sync.Mutex
	idx         atomic.Pointer[candIndex]
	idxRebuilds atomic.Int64
	// scratchPool recycles probe working sets (batches, the candidate
	// bitmap) so repeat probes allocate near-zero.
	scratchPool sync.Pool
}

// Rows returns the number of rows currently sketched into the cache.
func (c *Cache) Rows() int { return c.view.Load().ds.N() }

// Dim returns the feature-space dimension the cache sketches over.
func (c *Cache) Dim() int { return c.view.Load().ds.Dim }

// Dataset returns the cache's current dataset view. The view is immutable —
// appends publish a new one — so callers may iterate it without locking;
// long computations should capture it once and use that view throughout.
func (c *Cache) Dataset() *vec.Dataset { return c.view.Load().ds }

// AppendEpoch returns how many non-empty append batches the cache has
// absorbed.
func (c *Cache) AppendEpoch() int64 { return c.view.Load().appends }

// rowView is an immutable snapshot of the cache's rows: the dataset, the
// number of append batches that grew it, and one signature per row, of the
// measure's family. A growth publishes a new view whose slices never share
// a backing array with the old one, so a probe's view stays valid for the
// whole probe even while rows are appended concurrently.
type rowView struct {
	ds      *vec.Dataset
	appends int64
	minSigs [][]uint32
	srpSigs [][]uint64
}

// sketchChunk is how many rows a sketching worker takes at a time. Each row's
// signature is written only to its own slot, so the signatures are identical
// for any worker count — the parallel-sketching contract.
const sketchChunk = 16

// newCache returns a cache over the given params, measure, seed and pair
// store, with its decision tables built and no view published: what NewCache
// grows and DecodeSnapshot fills. Params must have passed Validate.
func newCache(p Params, m vec.Measure, seed int64, pairs *PairStore) *Cache {
	c := &Cache{Params: p, Measure: m, Seed: seed, Pairs: pairs, pruneMax: make(map[float64][]int32)}
	c.buildTables()
	return c
}

// NewCache sketches the dataset and returns an empty knowledge cache whose
// first view is ds itself. Minhash signatures are built for Jaccard data,
// signed-random-projection signatures for cosine data. Sketching — the
// one-time start-up cost of Fig 2.9 — is parallelized across Params.Workers
// goroutines; each row's signature is a pure function of (row, seed), so the
// signatures are byte-identical for any worker count.
func NewCache(ds *vec.Dataset, p Params, seed int64) *Cache {
	start := time.Now()
	c := newCache(p, ds.Measure, seed, NewPairStore())
	c.grow(rowView{ds: ds}, ds.Rows) // no other goroutine can see c yet
	c.SketchTime = time.Since(start)
	return c
}

// AppendRows grows the cache by a batch of new rows: it sketches them
// through the same hash family NewCache used and publishes the grown
// dataset, its signatures and the append count in one view — the
// incremental half of live ingest. Each row must pass vec.Sparse.Check
// against the cache's dimension and measure, and cosine rows must be
// normalized; a batch with a bad row is refused whole, and an empty batch
// changes nothing. Appends are serialized with each other, but probes keep
// running throughout: an in-flight probe keeps its captured view and the
// rows become visible atomically. Sketching is parallelized across
// Params.Workers and is byte-identical to what NewCache over the grown
// dataset would have produced, which is the append-equals-rebuild
// equivalence the ingest tests pin down. It returns the sketch wall time
// for the batch.
func (c *Cache) AppendRows(rows []vec.Sparse) (time.Duration, error) {
	if len(rows) == 0 {
		return 0, nil
	}
	for ri, r := range rows {
		if err := r.Check(c.Dim(), c.Measure); err != nil {
			return 0, fmt.Errorf("bayeslsh: append row %d: %w", ri, err)
		}
	}
	c.appendMu.Lock()
	defer c.appendMu.Unlock()
	start := time.Now()
	v := *c.view.Load()
	grown := *v.ds
	grown.Rows = append(v.ds.Rows[:len(v.ds.Rows):len(v.ds.Rows)], rows...)
	v.ds, v.appends = &grown, v.appends+1
	c.grow(v, rows)
	return time.Since(start), nil
}

// grow is the one growth step: it sketches added, the rows v's dataset
// gained, onto v's signatures through the cache's hash family, making the
// sketcher on the first growth, and publishes v. appendMu must be held once
// the cache is shared.
func (c *Cache) grow(v rowView, added []vec.Sparse) {
	if len(added) > 0 {
		if c.sketch == nil {
			c.sketch = c.newSketch(v.ds.Dim)
		}
		v = c.sketch(v, added, c.Params.WorkerCount())
	}
	c.view.Store(&v)
}

// newSketch builds the cache's hash family over dim features — minhash for
// Jaccard data, signed random projections for cosine — as a view extender.
func (c *Cache) newSketch(dim int) func(rowView, []vec.Sparse, int) rowView {
	if c.Measure == vec.JaccardSim {
		mh := lsh.NewMinHasher(c.Params.MaxHashes, c.Seed)
		return func(v rowView, rows []vec.Sparse, workers int) rowView {
			v.minSigs = sketchRows(v.minSigs, rows, workers, mh.Sketch)
			return v
		}
	}
	srp := lsh.NewSRP(c.Params.MaxHashes, dim, c.Seed)
	return func(v rowView, rows []vec.Sparse, workers int) rowView {
		v.srpSigs = sketchRows(v.srpSigs, rows, workers, srp.Sketch)
		return v
	}
}

// sketchRows returns sigs followed by the signatures of rows, sketched on
// workers goroutines into a fresh array, so a view holding sigs keeps it
// unchanged.
func sketchRows[S any](sigs [][]S, rows []vec.Sparse, workers int, sketch func(vec.Sparse) []S) [][]S {
	out := slices.Grow(sigs[:len(sigs):len(sigs)], len(rows))[:len(sigs)+len(rows)]
	added := out[len(sigs):]
	par.For(len(rows), workers, sketchChunk, func(i int) { added[i] = sketch(rows[i]) })
	return out
}

// probeHistory is all a cache keeps of its probes beyond the evidence they
// leave in the pair store: how many completed (repeats included), the
// distinct thresholds they ran at, and their summed processing time. A
// probe's pair list belongs to its caller; nothing after the probe reads it.
type probeHistory struct {
	count      int
	thresholds []float64 // ascending, distinct
	total      time.Duration
}

// add records one completed probe. A new threshold is inserted into a fresh
// array, so a copy of the history taken under the cache's lock stays valid
// after the lock is released.
func (h *probeHistory) add(t float64, d time.Duration) {
	h.count++
	h.total += d
	if i, found := slices.BinarySearch(h.thresholds, t); !found {
		h.thresholds = slices.Insert(slices.Clip(h.thresholds), i, t)
	}
}

// probes returns a copy of the probe history; add never writes into an
// array it has shared.
func (c *Cache) probes() probeHistory {
	c.historyMu.Lock()
	defer c.historyMu.Unlock()
	return c.history
}

// ProbeCount returns the number of completed probes, repeats included.
func (c *Cache) ProbeCount() int { return c.probes().count }

// Thresholds returns the distinct probed thresholds in ascending order.
func (c *Cache) Thresholds() []float64 {
	h := c.probes()
	return append(make([]float64, 0, len(h.thresholds)), h.thresholds...)
}

// ProcessTime reports the total probe processing time so far; with
// SketchTime it is the Fig 2.9 split.
func (c *Cache) ProcessTime() time.Duration { return c.probes().total }

// matches counts agreeing hash positions in [lo, hi) for pair (i, j).
func (v *rowView) matches(i, j int32, lo, hi int) int {
	if v.minSigs != nil {
		return lsh.MatchesRangeU32(v.minSigs[i], v.minSigs[j], lo, hi)
	}
	return lsh.MatchesRangePacked(v.srpSigs[i], v.srpSigs[j], lo, hi)
}

// simToCollision maps a similarity threshold into per-hash collision space.
func (c *Cache) simToCollision(s float64) float64 {
	if c.Measure == vec.JaccardSim {
		if s < 0 {
			return 0
		}
		if s > 1 {
			return 1
		}
		return s
	}
	return lsh.CosineToCollision(s)
}

// collisionToSim maps a collision probability back to similarity space.
func (c *Cache) collisionToSim(p float64) float64 {
	if c.Measure == vec.JaccardSim {
		return p
	}
	return lsh.CollisionToCosine(p)
}

// Estimate returns the similarity estimate for a pair state: the exact
// value for Lite-verified pairs, the MAP estimate otherwise — read from the
// est table for a state on the hash schedule, which holds the same formula's
// value, and computed for the off-schedule states only a direct Update makes.
func (c *Cache) Estimate(ps PairState) float64 {
	if ps.HasExact {
		return float64(ps.Exact)
	}
	if ps.N == 0 {
		return 0
	}
	if k := c.point(ps.N); k >= 0 && uint32(ps.M) <= uint32(ps.N) {
		return c.est[k][ps.M]
	}
	return c.collisionToSim(stats.NewBetaPosterior(int(ps.M), int(ps.N)).MAP())
}

// ProbAbove returns the posterior probability that the pair's similarity
// exceeds t — the summand of the cumulative APSS curve. Exactly verified
// pairs contribute 0 or 1.
func (c *Cache) ProbAbove(ps PairState, t float64) float64 {
	if ps.HasExact {
		if float64(ps.Exact) >= t {
			return 1
		}
		return 0
	}
	if ps.N == 0 {
		return 0
	}
	return stats.NewBetaPosterior(int(ps.M), int(ps.N)).Tail(c.simToCollision(t))
}

// MassAbove returns, per threshold, the expected number of cached pairs with
// similarity at least t and the variance of that number — Σ p and Σ p(1−p)
// with p = ProbAbove — over the pairs that lie within the first rows rows.
// It is the cumulative APSS curve, counted and then summed: p depends only
// on (M, N) for an unverified pair and on Exact ≥ t for a verified one, and
// a store holds few distinct states however many pairs it caches, so one
// integer-only pass over the runs of the first rows rows tallies pairs per
// state and the Beta tail is paid once per distinct state and threshold.
// Counts do not depend on visit order and the cells are summed in ascending
// (N, M) order, so equal stores give bit-equal results for any worker count
// or insertion history. Thresholds may come unsorted and repeat.
func (c *Cache) MassAbove(thresholds []float64, rows int) (est, varsum []float64) {
	sorted := append([]float64(nil), thresholds...)
	sort.Float64s(sorted)
	// cleared is how many of the sorted thresholds x reaches (x >= t).
	cleared := func(x float64) int {
		return sort.Search(len(sorted), func(i int) bool { return !(x >= sorted[i]) })
	}
	// exact[b] counts verified pairs that clear exactly b thresholds;
	// cells[n][m] counts unverified pairs at m matches of n hashes. A probe
	// leaves n ≤ MaxHashes, so cells is indexed by n and grows only for the
	// deeper states a direct Update makes.
	exact := make([]int64, len(sorted)+1)
	cells := make([][]int64, c.Params.MaxHashes+1)
	c.Pairs.Range(func(key uint64, ps PairState) bool {
		if _, j := UnpackKey(key); int(j) >= rows {
			return false // Range visits by larger row: the rest lie beyond too
		}
		if ps.HasExact {
			exact[cleared(float64(ps.Exact))]++
		} else if ps.N > 0 && uint32(ps.M) <= uint32(ps.N) {
			if int(ps.N) >= len(cells) {
				cells = append(cells, make([][]int64, int(ps.N)+1-len(cells))...)
			}
			if cells[ps.N] == nil {
				cells[ps.N] = make([]int64, ps.N+1)
			}
			cells[ps.N][ps.M]++
		}
		return true
	})
	for b := len(sorted) - 1; b >= 0; b-- {
		exact[b] += exact[b+1] // now: pairs that clear at least b
	}

	est, varsum = make([]float64, len(thresholds)), make([]float64, len(thresholds))
	for n, row := range cells {
		for m, count := range row {
			if count == 0 {
				continue
			}
			state := PairState{M: int32(m), N: int32(n)}
			for k, t := range thresholds {
				p := c.ProbAbove(state, t)
				est[k] += float64(float64(count) * p)              // rounded: no fused multiply-add
				varsum[k] += float64(float64(count) * p * (1 - p)) // rounded: no fused multiply-add
			}
		}
	}
	for k, t := range thresholds {
		est[k] += float64(exact[cleared(t)]) // Exact >= t clears all t does
	}
	return est, varsum
}

// buildTables computes the threshold-independent tables for every state on
// the hash schedule: at point k (n = (k+1)*Step, capped at MaxHashes) and m
// matches, est[k][m] is the MAP similarity estimate and conc[k][m] the Eq 2.2
// stopping decision — true when the posterior is concentrated within Delta
// of that estimate. Params must have passed Validate, which bounds the cells.
func (c *Cache) buildTables() {
	c.conc = make([][]bool, c.Params.schedulePoints())
	c.est = make([][]float64, len(c.conc))
	c.pointOf = make([]int32, c.Params.MaxHashes+1)
	for n := range c.pointOf {
		c.pointOf[n] = -1
	}
	for k := range c.conc {
		n := (k + 1) * c.Params.Step
		if n > c.Params.MaxHashes {
			n = c.Params.MaxHashes
		}
		c.pointOf[n] = int32(k)
		c.conc[k], c.est[k] = make([]bool, n+1), make([]float64, n+1)
		for mm := 0; mm <= n; mm++ {
			post := stats.NewBetaPosterior(mm, n)
			sHat := c.collisionToSim(post.MAP())
			lo := c.simToCollision(sHat - c.Params.Delta)
			hi := c.simToCollision(sHat + c.Params.Delta)
			c.est[k][mm] = sHat
			c.conc[k][mm] = post.CDF(hi)-post.CDF(lo) > 1-c.Params.Gamma
		}
	}
}

// point returns the index of the schedule point hash count n sits at — the
// row of conc, est and the prune bounds — or -1 when n is off the schedule.
func (c *Cache) point(n int32) int {
	if uint32(n) >= uint32(len(c.pointOf)) {
		return -1
	}
	return int(c.pointOf[n])
}

// concentrated reports whether the Eq 2.2 stopping rule fires at schedule
// point k with m matches, via the precomputed decision table.
func (c *Cache) concentrated(k, m int) bool {
	row := c.conc[k]
	if m >= len(row) {
		m = len(row) - 1
	}
	return row[m]
}

// maxPruneBounds caps pruneMax: thresholds are client-supplied float64s, so
// without a cap the map grows with requests. 256 is the batch endpoint's
// limit on thresholds per request.
const maxPruneBounds = 256

// pruneBound returns, for each schedule point, the largest match count m for
// which P(S >= t | m, n) < epsilon, so the comparison loop prunes with a
// single integer compare. A bound vector is a pure function of t and takes
// well under a millisecond to build, so a full memo is simply cleared.
func (c *Cache) pruneBound(t float64) []int32 {
	c.pruneMu.Lock()
	defer c.pruneMu.Unlock()
	if b, ok := c.pruneMax[t]; ok {
		return b
	}
	pT := c.simToCollision(t)
	pts := c.Params.schedulePoints()
	bound := make([]int32, pts)
	for k := 0; k < pts; k++ {
		n := (k + 1) * c.Params.Step
		if n > c.Params.MaxHashes {
			n = c.Params.MaxHashes
		}
		// Tail is increasing in m: binary search the largest pruned m.
		lo, hi := -1, n // lo: always prunable, hi: first non-prunable
		for lo+1 < hi {
			mid := (lo + hi) / 2
			if stats.NewBetaPosterior(mid, n).Tail(pT) < c.Params.Epsilon {
				lo = mid
			} else {
				hi = mid
			}
		}
		bound[k] = int32(lo)
	}
	if len(c.pruneMax) >= maxPruneBounds {
		clear(c.pruneMax)
	}
	c.pruneMax[t] = bound
	return bound
}

// Pair is a finalized similar pair.
type Pair struct {
	I, J int32
	Est  float64
}

// Result summarizes one all-pairs probe.
type Result struct {
	Threshold float64
	Pairs     []Pair
	// Candidates counts the candidate pairs that compared at least one hash
	// this probe, Pruned those of them Eq 2.1 then dropped, and
	// HashesCompared the comparisons they cost. CacheHits counts the pairs
	// answered wholly from the cache — Done, or prunable at this threshold
	// from their stored (N, M) — so Candidates + CacheHits is the number of
	// candidates considered. Every row's stored evidence is decided by one
	// rule in one place, so every counter is the same whether a row was
	// walked or generated.
	Candidates     int
	Pruned         int
	CacheHits      int
	HashesCompared int64
	// RowsWalked counts the rows whose candidates were read straight from
	// their stored run instead of generated from the candidate index. It
	// depends on the cache's history, not only on its rows: a restored cache
	// walks no row on its first probe.
	RowsWalked  int
	ProcessTime time.Duration
}

// ProgressFunc observes the probe after each processed row; pairsAbove is
// the number of similar pairs found so far among the first rows. It drives
// the incremental-approximation experiments (Figs 2.6-2.8).
type ProgressFunc func(rowsProcessed, totalRows, pairsAbove int)

// candOutcome is the evaluation of one pair that needs hashes: ps holds the
// pair's stored state when it is read and the state to store once it is
// evaluated, and pos the position it was read at, writeRow's hint. It is
// computed by the worker that owns the pair's row and merged into the
// Result on the search goroutine; insert marks, while the row is written, a
// pair its run does not hold yet.
type candOutcome struct {
	ps     PairState
	pos    int32
	pruned bool
	insert bool
	hashes int64
}

// answered reports whether a stored state decides its pair at a probe with
// prune bound bound, from the cache alone: the pair is Done, or its (N, M)
// is on the schedule and the bound still covers it. (Tail is monotone in t,
// so a pair pruned at t₀ is prunable at every t ≥ t₀.) It is the one
// cache-hit rule; decideRow is its one caller.
func (c *Cache) answered(ps PairState, bound []int32) bool {
	if ps.Done {
		return true
	}
	k := c.point(ps.N)
	return k >= 0 && ps.M <= bound[k]
}

// emits reports whether a pair in state ps is a similar pair at t — Done,
// with an estimate of at least t — and returns that estimate.
func (c *Cache) emits(ps PairState, t float64) (float64, bool) {
	if !ps.Done {
		return 0, false
	}
	est := c.Estimate(ps)
	return est, est >= t
}

// decideRow reads row i's stored evidence once, under its run r's one read
// lock, and decides every pair the cache answers. A run whose band holds
// the index's stop-word cap is the row's candidates, ascending, and is read
// as it is: the row is walked. Any other row's candidates are generated in
// order and looked up in the run, each with its own position as the hint,
// into scratch records, a pair the run lacks reading as zero; when the run
// holds exactly those candidates, the band is recorded. One loop then reads
// the records: a pair the cache answers at the prune bound is counted, and
// added to sc.hits when it emits at t; every other pair goes to the batch
// with its state and the position it was read at. It reports the hits, the
// band and whether the row was walked. The hit test stays one inline loop
// body: a call per pair costs a warm probe several times over.
func (c *Cache) decideRow(r *pairRun, i int32, idx *candIndex, indices []int32, t float64, bound []int32, sc *probeScratch) (hits int, b band, walked bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	recs := r.recs
	b = unpackBand(r.band.Load())
	if walked = b.has(idx.maxDF); !walked {
		sc.cands, b = idx.appendRow(i, indices, sc, sc.cands[:0])
		recs = sc.recs[:0]
		found := 0
		for x, j := range sc.cands {
			pos, ok := find(r.recs, j, x)
			rec := pairRec{j: j}
			if ok {
				rec.ps = r.recs[pos].ps
				found++
			}
			recs = append(recs, rec)
		}
		sc.recs = recs
		if found > 0 && found == len(r.recs) && found == len(recs) {
			r.band.Store(b.pack())
		}
	}
	for k, rec := range recs {
		if !c.answered(rec.ps, bound) {
			sc.js = append(sc.js, rec.j)
			sc.outs = append(sc.outs, candOutcome{ps: rec.ps, pos: int32(k)})
			continue
		}
		hits++
		if est, ok := c.emits(rec.ps, t); ok {
			sc.hits = append(sc.hits, Pair{I: rec.j, J: i, Est: est})
		}
	}
	return hits, b, walked
}

// evalCandidate resumes the incremental hash comparison of pair (j, i)
// under a probe's prune bound from its stored state, out.ps, which the cache
// did not answer: it counts only the hashes past N, and leaves the extended
// state in out.ps to be stored. The outcome is a pure function of the stored state
// plus the immutable sketches and decision tables, so evaluating pairs in
// any order or on any number of workers yields identical outcomes.
func (c *Cache) evalCandidate(ds *vec.Dataset, v *rowView, j, i int32, out *candOutcome, bound []int32) {
	p := c.Params
	ps := out.ps
	for !ps.Done {
		if int(ps.N) >= p.MaxHashes {
			// Sketch exhausted on an earlier probe (pruned at the final
			// schedule point): evidence is complete.
			ps.Done = true
			break
		}
		k := int(ps.N) / p.Step // next schedule point
		n := (k + 1) * p.Step
		if n > p.MaxHashes {
			n = p.MaxHashes
		}
		ps.M += int32(v.matches(j, i, int(ps.N), n))
		out.hashes += int64(n - int(ps.N))
		ps.N = int32(n)
		if ps.M <= bound[k] {
			out.pruned = true // Eq 2.1: almost surely below t
			break
		}
		if c.concentrated(k, int(ps.M)) || n == p.MaxHashes {
			ps.Done = true // Eq 2.2 or sketch exhausted
		}
	}
	if ps.Done && !ps.HasExact && p.Lite {
		// BayesLSH-Lite: verify survivors exactly.
		ps.Exact = float32(ds.Similarity(int(j), int(i)))
		ps.HasExact = true
	}
	out.ps = ps
}

// evalBatch evaluates a batch of whole rows on the given number of workers:
// marks[r] ends row r's pairs in js, and outs[x] holds the stored state of
// pair (js[x], marks[r].row) and receives its outcome. Each worker owns a
// row — its pairs, their outcomes and the row's run in the pair store — and
// only hashes and writes: the pairs arrive ascending, each with the state
// and position it was read at, and the worker stores what it evaluated
// under one write lock. Since each outcome lands at its pair's index, the
// result is independent of scheduling.
func (c *Cache) evalBatch(ds *vec.Dataset, v *rowView, runs []*pairRun, js []int32, marks []rowMark, outs []candOutcome, bound []int32, workers int) {
	par.For(len(marks), workers, 1, func(r int) {
		lo, mk := 0, marks[r]
		if r > 0 {
			lo = marks[r-1].end
		}
		if lo == mk.end {
			return
		}
		i := int32(mk.row)
		for x := lo; x < mk.end; x++ {
			c.evalCandidate(ds, v, js[x], i, &outs[x], bound)
		}
		c.Pairs.writeRow(runs[i], js[lo:mk.end], outs[lo:mk.end], mk.band, mk.hits+mk.end-lo)
	})
}

// Search runs an all-pairs similarity probe at threshold t, reusing and
// extending the knowledge cache. Rows are processed in index order, so that
// after processing k rows all pairs within the first k rows have been
// decided.
//
// A row's candidate set is threshold-independent, and every candidate is
// stored, so the search goroutine reads each row's stored evidence once,
// in row order, under the run's one read lock (decideRow): a row whose
// run's band holds the index's stop-word cap is walked — its run's pairs
// are its candidates — and any other row is generated, in ascending order,
// from the cache's persistent candidate index (built lazily on the first
// probe). The same loop decides every pair the cache answers, so only the
// pairs that need hashes reach evaluation, the hash-comparison hot path,
// which is sharded across Params.Workers goroutines in batches of whole
// rows, then merged back in row order: each row's hits first, then its
// evaluated outcomes. Results are byte-identical for every worker count;
// progress callbacks fire once per row, in order, after the batch covering
// that row has been merged. Batch buffers and the candidate bitmap come
// from a per-cache pool, so repeat probes on a warm cache allocate
// near-zero. A finished probe is recorded in the cache's probe history.
func Search(ds *vec.Dataset, t float64, c *Cache, progress ProgressFunc) (*Result, error) {
	return SearchWorkers(ds, t, c, progress, 0)
}

// SearchWorkers is Search with an explicit worker-pool size for this probe
// only, overriding Params.Workers (0 or negative = use Params; above 256,
// 256). The override is scheduling-only — outcomes are byte-identical for
// any value — so concurrent probes on one cache may each bring their own
// pool size.
func SearchWorkers(ds *vec.Dataset, t float64, c *Cache, progress ProgressFunc, workers int) (*Result, error) {
	v := c.view.Load()
	if ds.N() > v.ds.N() {
		// The cache may hold more rows than the caller's dataset view (an
		// append landed after the view was captured) — probing a prefix is
		// fine. Fewer sketches than rows is not.
		return nil, fmt.Errorf("bayeslsh: cache built for %d rows, dataset has %d", v.ds.N(), ds.N())
	}
	start := time.Now()
	res := &Result{Threshold: t}
	bound := c.pruneBound(t)
	if workers <= 0 {
		workers = c.Params.WorkerCount()
	}
	workers = clampWorkers(workers)
	idx := c.candidateIndex(ds)
	runs := c.Pairs.runs(ds.N())
	sc := c.getScratch(ds.N())
	defer c.putScratch(sc)

	// Pairs that need hashes are buffered with per-row boundaries and
	// flushed in batches of whole rows: evaluate in parallel, a row per
	// worker at a time, then merge sequentially so counters, pairs and
	// progress calls are in row order (pairs are sorted by I at the end). A
	// batch holds enough rows to keep every worker busy however many pairs
	// one row has; hits do not count toward it, since they need no worker.
	batchSize, batchRows := 1024*workers, 4*workers
	flush := func() {
		if len(sc.js) > 0 {
			c.evalBatch(ds, v, runs, sc.js, sc.marks, sc.outs, bound, workers)
		}
		done, hit := 0, 0
		for _, mk := range sc.marks {
			res.CacheHits += mk.hits
			sc.pairs = append(sc.pairs, sc.hits[hit:mk.hitEnd]...)
			hit = mk.hitEnd
			res.Candidates += mk.end - done
			for ; done < mk.end; done++ {
				oc := &sc.outs[done]
				res.HashesCompared += oc.hashes
				if oc.pruned {
					res.Pruned++
				}
				if est, ok := c.emits(oc.ps, t); ok {
					sc.pairs = append(sc.pairs, Pair{I: sc.js[done], J: int32(mk.row), Est: est})
				}
			}
			if progress != nil {
				progress(mk.row+1, ds.N(), len(sc.pairs))
			}
		}
		sc.reset()
	}

	for i := 0; i < ds.N(); i++ {
		hits, b, walked := c.decideRow(runs[i], int32(i), idx, ds.Rows[i].Indices, t, bound, sc)
		if walked {
			res.RowsWalked++
		}
		sc.marks = append(sc.marks, rowMark{row: i, end: len(sc.js), hits: hits, hitEnd: len(sc.hits), band: b})
		if len(sc.js) >= batchSize && len(sc.marks) >= batchRows {
			flush()
		}
	}
	flush()
	res.Pairs = sc.sortPairs(ds.N())
	res.ProcessTime = time.Since(start)
	c.historyMu.Lock()
	c.history.add(t, res.ProcessTime)
	c.historyMu.Unlock()
	return res, nil
}

// sortPairs returns the probe's pairs in (I, J) order, in a fresh slice.
// flush emits them row by row, so J never decreases along sc.pairs, and a
// stable counting sort on I alone yields (I, J) order in O(pairs + rows).
func (sc *probeScratch) sortPairs(rows int) []Pair {
	if len(sc.pairs) == 0 {
		return nil
	}
	if len(sc.count) < rows+1 {
		sc.count = make([]int, rows+1)
	}
	count := sc.count[:rows+1]
	clear(count)
	for _, p := range sc.pairs {
		count[p.I+1]++
	}
	for i := 1; i < len(count); i++ {
		count[i] += count[i-1]
	}
	out := make([]Pair, len(sc.pairs))
	for _, p := range sc.pairs {
		out[count[p.I]] = p
		count[p.I]++
	}
	return out
}

// Exact computes the ground-truth similar pairs by brute force; it is the
// "dark red line" of Figs 2.3-2.4 and the oracle for accuracy tests.
func Exact(ds *vec.Dataset, t float64) []Pair {
	var out []Pair
	for i := 0; i < ds.N(); i++ {
		for j := i + 1; j < ds.N(); j++ {
			if s := ds.Similarity(i, j); s >= t {
				out = append(out, Pair{I: int32(i), J: int32(j), Est: s})
			}
		}
	}
	return out
}

// ExactCurve counts ground-truth pairs at each threshold of the grid.
func ExactCurve(ds *vec.Dataset, grid []float64) []int {
	counts := make([]int, len(grid))
	for i := 0; i < ds.N(); i++ {
		for j := i + 1; j < ds.N(); j++ {
			s := ds.Similarity(i, j)
			for k, t := range grid {
				if s >= t {
					counts[k]++
				}
			}
		}
	}
	return counts
}

// RecallPrecision compares a probe's pairs against ground truth at the same
// threshold.
func RecallPrecision(got []Pair, truth []Pair) (recall, precision float64) {
	tset := make(map[uint64]bool, len(truth))
	for _, p := range truth {
		tset[PairKey(p.I, p.J)] = true
	}
	if len(truth) == 0 {
		if len(got) == 0 {
			return 1, 1
		}
		return 1, 0
	}
	hit := 0
	for _, p := range got {
		if tset[PairKey(p.I, p.J)] {
			hit++
		}
	}
	recall = float64(hit) / float64(len(truth))
	if len(got) > 0 {
		precision = float64(hit) / float64(len(got))
	} else {
		precision = 1
	}
	return recall, precision
}
