package bayeslsh

import (
	"bytes"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"plasmahd/internal/vec"
	"plasmahd/internal/wire"
)

// checkRangeOrder asserts the Range contract on s: pairs come in ascending
// (larger row, smaller row) order, and Len is the number of pairs visited.
func checkRangeOrder(t *testing.T, what string, s *PairStore) {
	t.Helper()
	visits, prevI, prevJ := 0, int32(-1), int32(-1)
	s.Range(func(key uint64, _ PairState) bool {
		j, i := UnpackKey(key)
		if i < prevI || (i == prevI && j <= prevJ) {
			t.Errorf("%s: pair (%d,%d) visited after (%d,%d)", what, j, i, prevJ, prevI)
			return false
		}
		prevI, prevJ = i, j
		visits++
		return true
	})
	if visits != s.Len() {
		t.Errorf("%s: Range visited %d pairs, Len = %d", what, visits, s.Len())
	}
}

// TestPairStoreRangeOrder pins the order Range promises and the count Len
// keeps: for a store filled by Update in random order, including repeated
// keys, and for the store a probe ladder leaves.
func TestPairStoreRangeOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	s := NewPairStore()
	distinct := map[uint64]bool{}
	for n := 0; n < 2000; n++ {
		i := int32(1 + rng.Intn(300))
		key := PairKey(int32(rng.Intn(int(i))), i)
		s.Update(key, PairState{M: int32(rng.Intn(32)), N: 32})
		distinct[key] = true
	}
	if s.Len() != len(distinct) {
		t.Errorf("Len = %d after %d distinct keys", s.Len(), len(distinct))
	}
	checkRangeOrder(t, "random updates", s)

	ds := snapDataset(60)
	c := NewCache(ds, DefaultParams(), 1)
	for _, th := range []float64{0.9, 0.5} {
		mustSearch(t, ds, th, c)
	}
	checkRangeOrder(t, "probed", c.Pairs)

	// An early stop ends the visit at once.
	visits := 0
	c.Pairs.Range(func(uint64, PairState) bool { visits++; return visits < 3 })
	if visits != 3 {
		t.Errorf("Range went on for %d visits after f returned false at 3", visits)
	}
}

// TestProbeRacesDirectoryGrowth runs two probers on ever-larger dataset
// views while AppendRows lands batches between their probes, so the pair
// store's row directory is replaced by one probe under another that is
// reading and writing runs of the old one, and a reader walks the store
// throughout. Under -race this is the check that a run outlives its
// directory; after the race the store keeps the Range contract and a
// full-view probe returns what a fresh cache does.
func TestProbeRacesDirectoryGrowth(t *testing.T) {
	forceParallel(t)
	full := snapDataset(120)
	p := DefaultParams()
	p.Workers = 3
	c := NewCache(prefixOf(full, 5), p, 7)
	thresholds := []float64{0.9, 0.7, 0.5}

	var done atomic.Bool
	var probes atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := w; !done.Load(); k++ {
				view := prefixOf(full, c.Rows())
				if _, err := SearchWorkers(view, thresholds[k%len(thresholds)], c, nil, 0); err != nil {
					t.Error(err)
					done.Store(true)
					return
				}
				probes.Add(1)
			}
		}(w)
	}
	wg.Add(1)
	go func() { // reader: whole-store walks while the directory grows
		defer wg.Done()
		for !done.Load() {
			c.Pairs.Range(func(key uint64, ps PairState) bool { return ps.M <= ps.N })
			_ = c.Pairs.Len()
		}
	}()
	// Appender: 5 → 120 rows in growing batches, each once both probers
	// have moved on, so every batch lands while probes are in flight.
	for at, sz := 5, 1; at < full.N() && !done.Load(); at, sz = at+sz, sz+2 {
		for seen := probes.Load(); probes.Load() < seen+2 && !done.Load(); {
			runtime.Gosched()
		}
		if _, err := c.AppendRows(full.Rows[at:min(at+sz, full.N())]); err != nil {
			t.Error(err)
			break
		}
	}
	done.Store(true)
	wg.Wait()

	checkRangeOrder(t, "after the race", c.Pairs)
	fresh := NewCache(full, p, 7)
	for _, th := range thresholds {
		want, got := mustSearch(t, full, th, fresh), mustSearch(t, full, th, c)
		if len(got.Pairs) != len(want.Pairs) {
			t.Fatalf("t=%v: %d pairs after the race, %d fresh", th, len(got.Pairs), len(want.Pairs))
		}
		for k := range want.Pairs {
			if got.Pairs[k] != want.Pairs[k] {
				t.Fatalf("t=%v pair %d: %+v after the race, %+v fresh", th, k, got.Pairs[k], want.Pairs[k])
			}
		}
	}
}

// TestSnapshotDuplicateKeyKeepsDeepest decodes CRC-valid streams that carry
// one key twice, in the same shard and in two, in both orders: the decoded
// store holds the pair once, at its deepest state — what the same entries
// written through Update leave.
func TestSnapshotDuplicateKeyKeepsDeepest(t *testing.T) {
	shallow := PairState{M: 20, N: 32}
	deep := PairState{M: 50, N: 64, Done: true, HasExact: true, Exact: 0.75}
	other := PairState{M: 3, N: 32}
	key, otherKey := PairKey(0, 2), PairKey(1, 2)
	for _, tc := range []struct {
		name   string
		shards [][]pairEntry
	}{
		{"same shard, deep last", [][]pairEntry{{{key, shallow}, {otherKey, other}, {key, deep}}}},
		{"same shard, deep first", [][]pairEntry{{{key, deep}, {key, shallow}, {otherKey, other}}}},
		{"two shards, deep last", [][]pairEntry{{{key, shallow}}, {{otherKey, other}, {key, deep}}}},
		{"two shards, deep first", [][]pairEntry{{{key, deep}, {otherKey, other}}, {{key, shallow}}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			c := wire.NewEncoder(&buf, snapErrors)
			forgeSnapshotHead(c, DefaultParams(), vec.CosineSim, 3, sketchKindSRP)
			for row := 0; row < 3; row++ {
				c.U32(4)
				for w := 0; w < 4; w++ {
					c.U64(uint64(row))
				}
			}
			c.U32(uint32(len(tc.shards)))
			for _, entries := range tc.shards {
				c.U32(uint32(len(entries)))
				for _, e := range entries {
					c.U64(e.key)
					c.U32(uint32(e.ps.M))
					c.U32(uint32(e.ps.N))
					c.U8(flagBit(e.ps.Done, pairFlagDone) | flagBit(e.ps.HasExact, pairFlagHasExact))
					c.F32(e.ps.Exact)
				}
			}
			if err := c.Finish(); err != nil {
				t.Fatal(err)
			}
			dec, err := DecodeSnapshot(&buf)
			if err != nil {
				t.Fatal(err)
			}
			if dec.Pairs.Len() != 2 {
				t.Errorf("Len = %d, want 2 distinct pairs", dec.Pairs.Len())
			}
			if ps, ok := dec.Pairs.Get(key); !ok || ps != deep {
				t.Errorf("duplicated key decoded to %+v (present %v), want the deepest %+v", ps, ok, deep)
			}
			if ps, _ := dec.Pairs.Get(otherKey); ps != other {
				t.Errorf("neighbouring key decoded to %+v, want %+v", ps, other)
			}
			checkRangeOrder(t, tc.name, dec.Pairs)
		})
	}
}
