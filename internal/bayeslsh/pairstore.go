package bayeslsh

import (
	"slices"
	"sync"
	"sync/atomic"
)

// pairRun is the stored evidence of one row i: every memoized pair (j, i),
// j < i, with js ascending and st[k] the state of pair (js[k], i). A pair is
// only ever produced while a probe processes its larger row, so a probe
// reads and writes row i's evidence under this run's one lock.
//
// Every candidate a probe generates is stored, so after a row's first probe
// its run is its candidate set. band records that: it packs the band of
// stop-word caps under which the run's js are exactly the row's candidates,
// and is the zero band — no cap — whenever that is not known. It is set
// under the run's lock by a probe whose candidates and run coincide, and
// cleared by any other insert; a decoded run starts without one. A probe
// whose cap the band holds walks the run instead of generating the row.
type pairRun struct {
	mu   sync.RWMutex
	js   []int32
	st   []PairState
	band atomic.Uint64
}

// find returns the position of j in the ascending js and whether it is
// there. hint is tried first: it is the candidate's own position, which is
// j's whenever the run holds exactly the row's candidates.
func find(js []int32, j int32, hint int) (int, bool) {
	if hint < len(js) && js[hint] == j {
		return hint, true
	}
	return slices.BinarySearch(js, j)
}

// PairStore is the concurrent pair-state table of the knowledge cache. Each
// pair (j < i) is filed under its larger row i, in that row's run; the runs
// sit in a directory indexed by row that grows geometrically and is
// replaced, never mutated, so finding a row's run takes one atomic load.
// Concurrent probes — and the parallel workers inside one, each of which
// owns whole rows — take one run lock per row they touch, not one per pair.
//
// Writes are monotone: Update keeps whichever of the old and new state
// carries more evidence (exact > done > more hashes compared), so racing
// probes can only grow the knowledge in the cache, never lose it.
type PairStore struct {
	dir   atomic.Pointer[[]*pairRun]
	grow  sync.Mutex // serializes directory growth
	count atomic.Int64
}

// NewPairStore returns an empty store.
func NewPairStore() *PairStore { return &PairStore{} }

// loaded returns the current directory; rows past its end hold no pairs.
func (s *PairStore) loaded() []*pairRun {
	if d := s.dir.Load(); d != nil {
		return *d
	}
	return nil
}

// runs returns a directory covering at least rows rows. Growth at least
// doubles the directory and creates every new run up front, so a run never
// moves and the directory is copied O(log rows) times in all.
func (s *PairStore) runs(rows int) []*pairRun {
	if d := s.loaded(); len(d) >= rows {
		return d
	}
	s.grow.Lock()
	defer s.grow.Unlock()
	cur := s.loaded()
	if len(cur) >= rows {
		return cur
	}
	next := make([]*pairRun, max(rows, 2*len(cur)))
	copy(next, cur)
	fresh := make([]pairRun, len(next)-len(cur))
	for k := range fresh {
		next[len(cur)+k] = &fresh[k]
	}
	s.dir.Store(&next)
	return next
}

// evidence totally orders pair states by how much is known about the pair.
func evidence(ps PairState) int64 {
	v := int64(ps.N)
	if ps.Done {
		v |= 1 << 32
	}
	if ps.HasExact {
		v |= 1 << 33
	}
	return v
}

// Get returns the memoized state for a key, if any.
func (s *PairStore) Get(k uint64) (PairState, bool) {
	j, i := UnpackKey(k)
	d := s.loaded()
	if int(i) >= len(d) {
		return PairState{}, false
	}
	r := d[i]
	r.mu.RLock()
	pos, ok := slices.BinarySearch(r.js, j)
	var ps PairState
	if ok {
		ps = r.st[pos]
	}
	r.mu.RUnlock()
	return ps, ok
}

// Update stores ps under k unless the existing state carries strictly more
// evidence, making concurrent probes monotone: a probe that raced with a
// deeper probe keeps the deeper result. A new pair need not be a candidate
// of its row, so inserting one clears the run's band.
func (s *PairStore) Update(k uint64, ps PairState) {
	j, i := UnpackKey(k)
	r := s.runs(int(i) + 1)[i]
	r.mu.Lock()
	pos, ok := slices.BinarySearch(r.js, j)
	if !ok {
		r.js = slices.Insert(r.js, pos, j)
		r.st = slices.Insert(r.st, pos, ps)
		r.band.Store(0)
		s.count.Add(1)
	} else if evidence(ps) >= evidence(r.st[pos]) {
		r.st[pos] = ps
	}
	r.mu.Unlock()
}

// Len returns the number of memoized pairs.
func (s *PairStore) Len() int { return int(s.count.Load()) }

// Range calls f for every memoized pair until f returns false, in ascending
// order of the larger row and, within a row, of the smaller one — so a
// caller that wants only the pairs within the first n rows stops at the
// first pair whose larger row is n. Each row's run is read-locked only
// while it is being visited; f must not write pairs of the row it is
// visiting.
func (s *PairStore) Range(f func(key uint64, ps PairState) bool) {
	for i, r := range s.loaded() {
		if !r.visit(int32(i), f) {
			return
		}
	}
}

// appendRun appends row i's run to dst as records, copied under the run's
// read lock.
func (s *PairStore) appendRun(dst []pairRec, i int) []pairRec {
	d := s.loaded()
	if i >= len(d) {
		return dst
	}
	r := d[i]
	r.mu.RLock()
	defer r.mu.RUnlock()
	for k, j := range r.js {
		dst = append(dst, pairRec{j, r.st[k]})
	}
	return dst
}

// visit calls f for each pair of the run (larger row i) under its read lock.
func (r *pairRun) visit(i int32, f func(key uint64, ps PairState) bool) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	for k, j := range r.js {
		if !f(PairKey(j, i), r.st[k]) {
			return false
		}
	}
	return true
}

// walk reads row i's candidates straight from its run r when the run's band
// holds the probe's stop-word cap maxDF: the run's pairs are then the
// candidates generation would produce. Under the run's one read lock it
// decides each pair the cache answers at the probe's prune bound, counting
// it and adding it to sc.hits when it emits at t, and appends every other
// pair to sc.cands, ascending, with its outcome in sc.outs holding the
// state it was read with. It reports the hits, the band and whether it
// walked; a row it does not walk is left to the candidate index.
func (c *Cache) walk(r *pairRun, i, maxDF int32, t float64, bound []int32, sc *probeScratch) (hits int, b band, walked bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	b = unpackBand(r.band.Load())
	if !b.has(maxDF) {
		return 0, band{}, false
	}
	for k, j := range r.js {
		ps := r.st[k]
		if !c.answered(ps, bound) {
			sc.cands = append(sc.cands, candidate{j: j, i: i})
			sc.outs = append(sc.outs, candOutcome{ps: ps})
			continue
		}
		hits++
		if est, ok := c.emits(ps, t); ok {
			sc.hits = append(sc.hits, Pair{I: j, J: i, Est: est})
		}
	}
	return hits, b, true
}

// readRow copies the stored state of each candidate of one row into its
// outcome under a single read lock; a pair with no state reads as zero.
// cands are ascending, so while the run holds exactly the candidates,
// candidate x is entry x and each lookup is one comparison; any other run
// falls back to binary search. When every candidate is stored and nothing
// else is, the run is recorded as the candidate set of the caps in b.
func (r *pairRun) readRow(cands []candidate, outs []candOutcome, b band) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	found := 0
	for x, cd := range cands {
		if pos, ok := find(r.js, cd.j, x); ok {
			outs[x].ps = r.st[pos]
			found++
		} else {
			outs[x].ps = PairState{}
		}
	}
	if found == len(r.js) && found == len(cands) {
		r.band.Store(b.pack())
	}
}

// writeRow stores the states of one row's evaluated candidates, ascending in
// j, under a single write lock, by Update's rule: an existing pair keeps the
// deeper of its state and the new one. New pairs are merged into the run
// from the back in one O(run) pass; since cands are ascending, so are they.
// Cache hits wrote nothing and are skipped. After an insert the run's band
// is b if the run now holds exactly the candidates, and cleared otherwise.
// A walked row's candidates skip the pairs its walk answered, so their
// positions are no hint: each is found by binary search, a cost only a pair
// that compared hashes pays.
func (s *PairStore) writeRow(r *pairRun, cands []candidate, outs []candOutcome, b band) {
	r.mu.Lock()
	defer r.mu.Unlock()
	added := 0
	for x, cd := range cands {
		oc := &outs[x]
		if oc.cacheHit {
			continue
		}
		pos, ok := find(r.js, cd.j, x)
		oc.insert = !ok
		if !ok {
			added++
		} else if evidence(oc.ps) >= evidence(r.st[pos]) {
			r.st[pos] = oc.ps
		}
	}
	if added == 0 {
		return
	}
	old := len(r.js)
	r.js = slices.Grow(r.js, added)[:old+added]
	r.st = slices.Grow(r.st, added)[:old+added]
	// w is the next slot to fill from the back and p the last old entry not
	// yet moved; once they meet, the old entries below are in place.
	w, p := old+added-1, old-1
	for x := len(cands) - 1; w > p; x-- {
		if !outs[x].insert {
			continue
		}
		j := cands[x].j
		for ; p >= 0 && r.js[p] > j; p, w = p-1, w-1 {
			r.js[w], r.st[w] = r.js[p], r.st[p]
		}
		r.js[w], r.st[w] = j, outs[x].ps
		w--
	}
	if len(r.js) == len(cands) {
		r.band.Store(b.pack())
	} else {
		r.band.Store(0)
	}
	s.count.Add(int64(added))
}
