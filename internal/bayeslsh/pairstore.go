package bayeslsh

import (
	"slices"
	"sort"
	"sync"
	"sync/atomic"
)

// pairRun is the stored evidence of one row i: every memoized pair (j, i),
// j < i, with js ascending and st[k] the state of pair (js[k], i). A pair is
// only ever produced while a probe processes its larger row, so a probe
// reads and writes row i's evidence under this run's one lock.
type pairRun struct {
	mu sync.RWMutex
	js []int32
	st []PairState
}

// find returns the position of j in the ascending js and whether it is
// there. hint is tried first: a row's candidates and its run are mostly in
// the same ascending order, so the position after the previous hit usually
// is j's.
func find(js []int32, j int32, hint int) (int, bool) {
	if hint < len(js) && js[hint] == j {
		return hint, true
	}
	return slices.BinarySearch(js, j)
}

// Len, Less and Swap sort the run's parallel slices by j.
func (r *pairRun) Len() int           { return len(r.js) }
func (r *pairRun) Less(a, b int) bool { return r.js[a] < r.js[b] }
func (r *pairRun) Swap(a, b int) {
	r.js[a], r.js[b] = r.js[b], r.js[a]
	r.st[a], r.st[b] = r.st[b], r.st[a]
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
// deeper probe keeps the deeper result.
func (s *PairStore) Update(k uint64, ps PairState) {
	j, i := UnpackKey(k)
	r := s.runs(int(i) + 1)[i]
	r.mu.Lock()
	pos, ok := slices.BinarySearch(r.js, j)
	if !ok {
		r.js = slices.Insert(r.js, pos, j)
		r.st = slices.Insert(r.st, pos, ps)
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

// readRow copies the stored state of each candidate of one row into its
// outcome under a single read lock; a pair with no state reads as zero.
func (r *pairRun) readRow(cands []candidate, outs []candOutcome) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	hint := 0
	for x, cd := range cands {
		pos, ok := find(r.js, cd.j, hint)
		if ok {
			outs[x].ps, hint = r.st[pos], pos+1
		} else {
			outs[x].ps = PairState{}
		}
	}
}

// writeRow stores the states of one row's evaluated candidates under a
// single write lock, by Update's rule: an existing pair keeps the deeper of
// its state and the new one, and new pairs are appended and the run
// re-sorted once. Cache hits wrote nothing and are skipped.
func (s *PairStore) writeRow(r *pairRun, cands []candidate, outs []candOutcome) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.js) == 0 {
		// The row's first write: every candidate is new, so size it once.
		r.js, r.st = slices.Grow(r.js, len(cands)), slices.Grow(r.st, len(cands))
	}
	old, hint := len(r.js), 0
	for x, cd := range cands {
		oc := &outs[x]
		if oc.cacheHit {
			continue
		}
		pos, ok := find(r.js[:old], cd.j, hint)
		if !ok {
			r.js, r.st = append(r.js, cd.j), append(r.st, oc.ps)
			continue
		}
		if evidence(oc.ps) >= evidence(r.st[pos]) {
			r.st[pos] = oc.ps
		}
		hint = pos + 1
	}
	if added := len(r.js) - old; added > 0 {
		sort.Sort(r)
		s.count.Add(int64(added))
	}
}
