package bayeslsh

import (
	"sort"
	"sync"
)

// pairStoreShards is the number of lock stripes in a PairStore. 128 stripes
// keep contention negligible for any worker count a single machine can run
// while costing ~3KB of empty maps per cache.
const pairStoreShards = 128

type pairShard struct {
	mu sync.RWMutex
	m  map[uint64]PairState
}

// PairStore is the concurrent pair-state table of the knowledge cache: a map
// from PairKey to PairState striped across independently locked shards so
// that concurrent probes (and the parallel workers inside one probe) can
// read and extend pair evidence without a global lock.
//
// Writes are monotone: Update keeps whichever of the old and new state
// carries more evidence (exact > done > more hashes compared), so racing
// probes can only grow the knowledge in the cache, never lose it.
type PairStore struct {
	shards [pairStoreShards]pairShard
}

// NewPairStore returns an empty store.
func NewPairStore() *PairStore {
	s := &PairStore{}
	for i := range s.shards {
		s.shards[i].m = make(map[uint64]PairState)
	}
	return s
}

// shardOf picks the stripe for a key. PairKey packs (i<<32|j), so a
// Fibonacci multiply spreads keys that differ only in low bits.
func (s *PairStore) shardOf(k uint64) *pairShard {
	return &s.shards[(k*0x9e3779b97f4a7c15)>>(64-7)]
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
	sh := s.shardOf(k)
	sh.mu.RLock()
	ps, ok := sh.m[k]
	sh.mu.RUnlock()
	return ps, ok
}

// Update stores ps under k unless the existing state carries strictly more
// evidence, making concurrent probes monotone: a probe that raced with a
// deeper probe keeps the deeper result.
func (s *PairStore) Update(k uint64, ps PairState) {
	sh := s.shardOf(k)
	sh.mu.Lock()
	if old, ok := sh.m[k]; !ok || evidence(ps) >= evidence(old) {
		sh.m[k] = ps
	}
	sh.mu.Unlock()
}

// Len returns the number of memoized pairs.
func (s *PairStore) Len() int {
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		n += len(sh.m)
		sh.mu.RUnlock()
	}
	return n
}

// Range calls f for every memoized pair until f returns false. Each shard is
// read-locked only while it is being iterated, so concurrent probes block at
// most one stripe at a time. f must not call back into the store's write
// methods for keys in the shard it is iterating.
func (s *PairStore) Range(f func(key uint64, ps PairState) bool) {
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for k, ps := range sh.m {
			if !f(k, ps) {
				sh.mu.RUnlock()
				return
			}
		}
		sh.mu.RUnlock()
	}
}

// pairEntry is one memoized pair outside the store: what a snapshot carries.
type pairEntry struct {
	key uint64
	ps  PairState
}

// sortedShard copies one stripe's entries out under its read lock and
// returns them in ascending key order, which is what makes snapshot bytes a
// function of the store's contents and not of Go's map iteration order.
func (s *PairStore) sortedShard(shard int) []pairEntry {
	sh := &s.shards[shard]
	sh.mu.RLock()
	entries := make([]pairEntry, 0, len(sh.m))
	for k, ps := range sh.m {
		entries = append(entries, pairEntry{k, ps})
	}
	sh.mu.RUnlock()
	sort.Slice(entries, func(a, b int) bool { return entries[a].key < entries[b].key })
	return entries
}
