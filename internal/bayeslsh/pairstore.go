package bayeslsh

import (
	"cmp"
	"slices"
	"sync"
	"sync/atomic"
)

// pairRun is the stored evidence of one row i: a record for every memoized
// pair (j, i), j < i, ascending in j. A pair is only ever produced while a
// probe processes its larger row, so a probe reads and writes row i's
// evidence under this run's one lock.
//
// Every candidate a probe generates is stored, so after a row's first probe
// its run is its candidate set. band records that: it packs the band of
// stop-word caps under which the run's pairs are exactly the row's
// candidates, and is the zero band — no cap — whenever that is not known. It
// is set under the run's lock by a probe whose candidates and run coincide,
// and cleared by any other insert; a decoded run starts without one. A probe
// whose cap the band holds reads the run as the row's candidates instead of
// generating them.
type pairRun struct {
	mu   sync.RWMutex
	recs []pairRec
	band atomic.Uint64
}

// pairRec is one record of row i's run, in the store and in a cache
// snapshot alike: the smaller row j of pair (j, i) and its state.
type pairRec struct {
	j  int32
	ps PairState
}

// find returns the position of j in the records, ascending in j, and
// whether it is there. hint is tried first: it is the position the pair was
// read at, or its candidate's own position, which is j's whenever the run
// holds exactly the row's candidates.
func find(recs []pairRec, j int32, hint int) (int, bool) {
	if hint < len(recs) && recs[hint].j == j {
		return hint, true
	}
	return slices.BinarySearchFunc(recs, j, func(r pairRec, j int32) int { return cmp.Compare(r.j, j) })
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
	pos, ok := find(r.recs, j, 0)
	var ps PairState
	if ok {
		ps = r.recs[pos].ps
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
	pos, ok := find(r.recs, j, 0)
	if !ok {
		r.recs = slices.Insert(r.recs, pos, pairRec{j, ps})
		r.band.Store(0)
		s.count.Add(1)
	} else if evidence(ps) >= evidence(r.recs[pos].ps) {
		r.recs[pos].ps = ps
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
	return append(dst, r.recs...)
}

// visit calls f for each pair of the run (larger row i) under its read lock.
func (r *pairRun) visit(i int32, f func(key uint64, ps PairState) bool) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	for _, rec := range r.recs {
		if !f(PairKey(rec.j, i), rec.ps) {
			return false
		}
	}
	return true
}

// writeRow stores the evaluated states of one row's pairs that compared
// hashes, ascending in j, under a single write lock, by Update's rule: an
// existing pair keeps the deeper of its state and the new one. Each pair is
// looked for first at the position it was read at, so while the run is
// unchanged since the read each lookup is one comparison. New pairs are
// merged into the run from the back in one O(run) pass; since js are
// ascending, so are they. The row's hits were stored already, so once these
// are, the run holds every one of the row's cands candidates: after an
// insert the band is b if that is all it holds, and cleared otherwise.
func (s *PairStore) writeRow(r *pairRun, js []int32, outs []candOutcome, b band, cands int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	added := 0
	for x, j := range js {
		oc := &outs[x]
		pos, ok := find(r.recs, j, int(oc.pos))
		oc.insert = !ok
		if !ok {
			added++
		} else if evidence(oc.ps) >= evidence(r.recs[pos].ps) {
			r.recs[pos].ps = oc.ps
		}
	}
	if added == 0 {
		return
	}
	old := len(r.recs)
	r.recs = slices.Grow(r.recs, added)[:old+added]
	// w is the next slot to fill from the back and p the last old record not
	// yet moved; once they meet, the old records below are in place.
	w, p := old+added-1, old-1
	for x := len(js) - 1; w > p; x-- {
		if !outs[x].insert {
			continue
		}
		j := js[x]
		for ; p >= 0 && r.recs[p].j > j; p, w = p-1, w-1 {
			r.recs[w] = r.recs[p]
		}
		r.recs[w] = pairRec{j, outs[x].ps}
		w--
	}
	if len(r.recs) == cands {
		r.band.Store(b.pack())
	} else {
		r.band.Store(0)
	}
	s.count.Add(int64(added))
}
