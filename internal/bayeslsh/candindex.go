package bayeslsh

import (
	"math"
	"math/bits"
	"slices"

	"plasmahd/internal/vec"
)

// candIndex is the persistent candidate-generation index of a knowledge
// cache. The original engine rebuilt an inverted index (postings map, df
// map, mark array) from scratch on every probe, even though the candidate
// set is threshold-independent; on the repeat-probe workload of Fig 2.1 that
// rebuild became the dominant per-probe cost once hash comparisons were
// cached. The index is built once, lazily, on the first probe of a cache and
// reused by every later probe — for the rows it still has to generate: a row
// whose stored run is known to be its candidate set under the probe's
// stop-word cap (see band) is walked instead. A generated row's candidates
// come out ascending (appendRow), the order its run keeps them in, so
// nothing sorts them before they are looked up in the run.
//
// Live ingest grows the index without invalidating it: each candIndex value
// is immutable, covering exactly total() rows. The bulk of the postings live
// in CSR arrays (rows covered: [0, csrRows)); rows appended since the last
// full build live in a per-feature tail map ([csrRows, csrRows+tailRows)),
// still in ascending row order, so a probe sees the same merged posting list
// a from-scratch build over the grown dataset would produce. Once the tail
// outgrows a fraction of the CSR base, the next probe folds everything into
// a fresh CSR build — a geometric rebuild schedule that keeps the amortized
// indexing cost O(1) per appended row.
//
// Layout is CSR: the postings for feature f are rows[offsets[f]:offsets[f+1]],
// row ids in ascending order, untruncated. (The pre-ingest index truncated
// postings at maxDF+1 entries; with appends the cap maxDF = frac*n grows with
// the dataset, so entries past an old cap can become live again — the full
// lists are kept and the cap is applied at generation time instead.)
type candIndex struct {
	csrRows  int32
	offsets  []int32
	rows     []int32
	tail     map[int32][]int32
	tailRows int32
	// nnz is the total non-zeros over the covered rows, carried so extending
	// the index can re-derive the stop-word cap without rescanning the prefix.
	nnz   int64
	maxDF int32
}

// total returns the number of rows the index covers.
func (ix *candIndex) total() int32 { return ix.csrRows + ix.tailRows }

// shouldRebuild reports whether growing to n rows should fold the index into
// a fresh CSR build instead of extending the tail: rebuild once the tail
// would exceed a quarter of the CSR base, so each full O(nnz) build pays for
// at least csrRows/4 appended rows.
func (ix *candIndex) shouldRebuild(n int) bool {
	return int32(n)-ix.csrRows > ix.csrRows/4
}

// resolveMaxDF computes the stop-word document-frequency cap for an index
// covering n rows with nnz total non-zeros: features present in more than
// MaxDFFrac of rows are skipped during candidate generation. The cap is only
// sound for sparse data, where features past it carry negligible weight; on
// dense matrix-like data (every row touches most features) it would sever
// candidate generation entirely, so it is disabled there.
func resolveMaxDF(dim, n int, nnz int64, frac float64) int32 {
	maxDF := int(frac * float64(n))
	if maxDF < 2 {
		maxDF = 2
	}
	avg := 0.0
	if n > 0 {
		avg = float64(nnz) / float64(n)
	}
	if float64(dim) <= 2*avg {
		maxDF = n
	}
	return int32(maxDF)
}

// buildCandIndex constructs the CSR index over rows. The candidate set it
// generates is bit-identical to the old per-probe incremental build: a pair
// (j, i) is a candidate iff some shared feature f has j among its first
// maxDF rows and at most maxDF rows before i carry f.
func buildCandIndex(dim int, rows []vec.Sparse, frac float64) *candIndex {
	var nnz int64
	for _, r := range rows {
		nnz += int64(len(r.Indices))
	}
	n := len(rows)
	offsets := make([]int32, dim+1)
	for _, r := range rows {
		for _, f := range r.Indices {
			offsets[f+1]++
		}
	}
	for f := 0; f < dim; f++ {
		offsets[f+1] += offsets[f]
	}
	out := make([]int32, offsets[dim])
	fill := make([]int32, dim)
	for i, r := range rows {
		for _, f := range r.Indices {
			out[offsets[f]+fill[f]] = int32(i)
			fill[f]++
		}
	}
	return &candIndex{
		csrRows: int32(n),
		offsets: offsets,
		rows:    out,
		nnz:     nnz,
		maxDF:   resolveMaxDF(dim, n, nnz, frac),
	}
}

// extend returns a new index covering all[:n] by sharing the receiver's CSR
// arrays and growing the tail map. The receiver stays valid for concurrent
// probes: shared tail slices are appended copy-on-write, and the stop-word
// cap is re-derived for the grown row count so the result matches a
// from-scratch build over all[:n] candidate-for-candidate.
func (ix *candIndex) extend(dim int, all []vec.Sparse, n int, frac float64) *candIndex {
	nnz := ix.nnz
	grown := make(map[int32][]int32)
	for i := int(ix.total()); i < n; i++ {
		for _, f := range all[i].Indices {
			grown[f] = append(grown[f], int32(i))
		}
		nnz += int64(len(all[i].Indices))
	}
	tail := make(map[int32][]int32, len(ix.tail)+len(grown))
	for f, t := range ix.tail {
		tail[f] = t
	}
	for f, g := range grown {
		t := tail[f]
		tail[f] = append(t[:len(t):len(t)], g...)
	}
	return &candIndex{
		csrRows:  ix.csrRows,
		offsets:  ix.offsets,
		rows:     ix.rows,
		tail:     tail,
		tailRows: int32(n) - ix.csrRows,
		nnz:      nnz,
		maxDF:    resolveMaxDF(dim, n, nnz, frac),
	}
}

// appendRow appends row i's candidates j < i to js, ascending and once
// each, and returns the row's band. It marks each candidate in the scratch
// bitmap, then drains the marked words in order, clearing each, so the
// bitmap is zero again when it returns. The per-feature scan replays the
// old incremental build exactly: only the first maxDF rows of a feature
// were ever indexed, and a feature already carried by more than maxDF
// earlier rows is stop-worded for row i — detectable in O(1) because the
// merged CSR+tail postings are ascending, so the occurrence at position
// maxDF tells whether the cap was hit before row i.
//
// So feature f is live for row i iff c_f, its postings below i, is at most
// maxDF, and a live feature contributes exactly those postings: the
// candidate set depends on the cap only through which features are live. It
// is the same for every cap in the band [max live c_f, min stop-worded c_f),
// which costs one binary search per stop-worded feature to find.
func (ix *candIndex) appendRow(i int32, indices []int32, sc *probeScratch, js []int32) ([]int32, band) {
	bitmap := sc.bitmap
	lo, hi := i, int32(-1) // the least and the greatest candidate marked
	b := band{hi: math.MaxInt32}
	for _, f := range indices {
		off, end := ix.offsets[f], ix.offsets[f+1]
		cnt := end - off
		t := ix.tail[f]
		limit := cnt + int32(len(t))
		if limit > ix.maxDF {
			var atCap int32
			if ix.maxDF < cnt {
				atCap = ix.rows[off+ix.maxDF]
			} else {
				atCap = t[ix.maxDF-cnt]
			}
			if atCap < i {
				// Stop-worded before row i was reached, and for every cap
				// below c_f.
				below, _ := slices.BinarySearch(ix.rows[off:end], i)
				if below == int(cnt) {
					inTail, _ := slices.BinarySearch(t, i)
					below += inTail
				}
				b.hi = min(b.hi, int32(below))
				continue
			}
			limit = ix.maxDF
		}
		k := int32(0)
		for ; k < limit; k++ {
			var j int32
			if k < cnt {
				j = ix.rows[off+k]
			} else {
				j = t[k-cnt]
			}
			if j >= i {
				break
			}
			bitmap[j>>6] |= 1 << (j & 63)
			lo, hi = min(lo, j), max(hi, j)
		}
		b.lo = max(b.lo, k) // k = c_f: the scan stopped at row i or the cap
	}
	for w := lo >> 6; w <= hi>>6; w++ {
		for word := bitmap[w]; word != 0; word &= word - 1 {
			js = append(js, w<<6|int32(bits.TrailingZeros64(word)))
		}
		bitmap[w] = 0
	}
	return js, b
}

// band is the range [lo, hi) of stop-word caps under which one row generates
// one and the same candidate set (see appendRow). The zero band holds no cap.
type band struct{ lo, hi int32 }

// has reports whether maxDF lies in the band.
func (b band) has(maxDF int32) bool { return b.lo <= maxDF && maxDF < b.hi }

// pack and unpackBand convert a band to and from the one word a run keeps it
// in; the zero word is the zero band.
func (b band) pack() uint64 { return uint64(uint32(b.hi))<<32 | uint64(uint32(b.lo)) }

func unpackBand(w uint64) band { return band{lo: int32(uint32(w)), hi: int32(w >> 32)} }

// probeScratch is the reusable per-probe working set, pooled per cache so a
// repeat probe on a warm cache allocates near-zero: the batch of pairs that
// need hashes (js[x] the smaller row of the pair outs[x] evaluates), the
// similar pairs the cache answered, per-row batch boundaries, one generated
// row's candidates and their records, the candidate bitmap, and the
// probe's pairs in row order with the per-row counts that sort them. The
// bitmap holds a bit per row, ⌈n/64⌉ words, and is all zero between rows:
// appendRow clears every word it marks as it drains it.
type probeScratch struct {
	js     []int32
	outs   []candOutcome
	hits   []Pair
	marks  []rowMark
	cands  []int32
	recs   []pairRec
	bitmap []uint64
	pairs  []Pair
	count  []int
}

// reset empties the batch buffers, keeping their capacity.
func (sc *probeScratch) reset() {
	sc.js, sc.outs, sc.hits, sc.marks = sc.js[:0], sc.outs[:0], sc.hits[:0], sc.marks[:0]
}

// rowMark records one row's ends in the batch buffers — end in js and outs,
// hitEnd in hits — so a flushed batch can replay counters and progress
// callbacks in row order, the number of its pairs the cache answered, and
// the band of caps its candidates were read under. The row's pairs that
// need hashes start at the previous mark's end; their row index is row.
type rowMark struct {
	row, end     int
	hits, hitEnd int
	band         band
}

// candidateIndex returns a candidate index covering exactly ds's rows,
// reusing, extending, or rebuilding the cache's published index as needed.
// Concurrent probes coordinate through idxMu; the published pointer only
// ever moves forward (to an index covering at least as many rows), so a
// probe holding an older dataset view never tears down a newer index — it
// builds a private one and leaves the published index alone.
func (c *Cache) candidateIndex(ds *vec.Dataset) *candIndex {
	n := ds.N()
	if cur := c.idx.Load(); cur != nil && cur.total() == int32(n) {
		return cur
	}
	c.idxMu.Lock()
	defer c.idxMu.Unlock()
	cur := c.idx.Load()
	if cur != nil && cur.total() == int32(n) {
		return cur
	}
	var next *candIndex
	growing := cur != nil && int(cur.total()) < n
	if growing && !cur.shouldRebuild(n) {
		next = cur.extend(ds.Dim, ds.Rows, n, c.Params.MaxDFFrac)
	} else {
		next = buildCandIndex(ds.Dim, ds.Rows[:n], c.Params.MaxDFFrac)
		if growing {
			c.idxRebuilds.Add(1)
		}
	}
	if cur == nil || next.total() >= cur.total() {
		c.idx.Store(next)
	}
	return next
}

// IndexRebuilds returns how many times appended rows forced a full rebuild
// of the candidate index (tail extensions and the initial build don't
// count) — the plasmad `indexRebuilds` metric.
func (c *Cache) IndexRebuilds() int64 { return c.idxRebuilds.Load() }

// getScratch checks a probe working set out of the cache's pool, sized for
// the dataset. Warm probes get the previous probe's buffers back.
func (c *Cache) getScratch(n int) *probeScratch {
	sc, _ := c.scratchPool.Get().(*probeScratch)
	if sc == nil {
		sc = &probeScratch{}
	}
	if w := (n + 63) / 64; len(sc.bitmap) < w {
		sc.bitmap = make([]uint64, w)
	}
	return sc
}

// putScratch returns a working set to the pool, keeping the high-water-mark
// buffers but dropping their contents.
func (c *Cache) putScratch(sc *probeScratch) {
	sc.reset()
	sc.pairs = sc.pairs[:0]
	c.scratchPool.Put(sc)
}
