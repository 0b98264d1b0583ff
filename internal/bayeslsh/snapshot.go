package bayeslsh

import (
	"encoding/binary"
	"errors"
	"io"
	"math"
	"slices"
	"time"

	"plasmahd/internal/vec"
	"plasmahd/internal/wire"
)

// Snapshot codec for the knowledge cache. The format is a versioned binary
// stream:
//
//	magic   "PLHDKCSN"                       (8 bytes)
//	version uint16                           (currently 2)
//	payload params, seed, measure, N, dim, sketch time, sketches,
//	        pairs in 128 shards (entries sorted by key within a shard)
//	crc     uint32 (Castagnoli) over magic+version+payload
//
// Version 2 (live ingest) added the feature-space dimension after the row
// count, so a restored cache can rebuild its SRP sketcher and keep accepting
// appended rows.
//
// cacheImage.walk is the one description of the payload: internal/wire
// drives it in both directions, so every range and structure check in it
// guards the encoder as well as the decoder. All integers are little-endian
// fixed width. Encoding is deterministic: the same cache state always
// produces the same bytes, because pair entries are written in sorted key
// order within each shard. The shards are a wire layout only — they are the
// lock stripes of an earlier pair store — so encode regroups the store's
// per-row runs into them and decode regroups them back into runs. A
// corrupted or truncated snapshot fails loudly instead of producing a
// silently-wrong cache.

// cacheSnapMagic identifies a knowledge-cache snapshot stream.
var cacheSnapMagic = [8]byte{'P', 'L', 'H', 'D', 'K', 'C', 'S', 'N'}

// CacheSnapshotVersion is the current cache snapshot format version.
const CacheSnapshotVersion uint16 = 2

// Typed snapshot decode failures; all are wrapped with context, match with
// errors.Is.
var (
	// ErrSnapshotMagic means the stream is not a knowledge-cache snapshot.
	ErrSnapshotMagic = errors.New("bayeslsh: not a knowledge-cache snapshot (bad magic)")
	// ErrSnapshotVersion means the snapshot was written by an incompatible
	// format version.
	ErrSnapshotVersion = errors.New("bayeslsh: unsupported snapshot version")
	// ErrSnapshotChecksum means the payload does not match its CRC.
	ErrSnapshotChecksum = errors.New("bayeslsh: snapshot checksum mismatch")
	// ErrSnapshotCorrupt means a structural invariant failed during decode
	// (impossible lengths, out-of-range keys, truncation).
	ErrSnapshotCorrupt = errors.New("bayeslsh: corrupt snapshot")
)

// snapErrors maps wire failures onto the typed errors above.
var snapErrors = wire.Errors{
	Magic:    ErrSnapshotMagic,
	Version:  ErrSnapshotVersion,
	Checksum: ErrSnapshotChecksum,
	Corrupt:  ErrSnapshotCorrupt,
}

const (
	sketchKindMinhash = 0
	sketchKindSRP     = 1

	pairFlagDone     = 1 << 0
	pairFlagHasExact = 1 << 1

	// Generous ceilings that a real cache never exceeds but a corrupt length
	// field easily does, so a walk fails before acting on it.
	maxSnapRows   = 1 << 28
	maxSnapShards = 1 << 16

	// snapshotShards is the number of shards an encoded pair section has.
	snapshotShards = 128
)

// snapshotShard is the shard of the v2 layout an entry is written in: a
// Fibonacci multiply of the packed key, so keys that differ only in low bits
// spread.
func snapshotShard(e pairEntry) int { return int((e.key * 0x9e3779b97f4a7c15) >> (64 - 7)) }

// pairEntry is one memoized pair outside the store: what a snapshot carries.
type pairEntry struct {
	key uint64
	ps  PairState
}

// countingSort stably distributes src into dst by bucket(e) in [0, buckets)
// and returns dst with ends[b], the end of bucket b's span. It is the one
// sort the snapshot codec needs: two passes turn the store's (larger row,
// smaller row) order into the wire's (shard, key) order and back, in linear
// time.
func countingSort(src, dst []pairEntry, buckets int, bucket func(pairEntry) int) ([]pairEntry, []int) {
	//lint:prealloc-ok buckets is a row count the walk has read a signature for per row, or the shard constant
	ends := make([]int, buckets)
	for _, e := range src {
		ends[bucket(e)]++
	}
	at := 0
	for b, n := range ends {
		ends[b], at = at, at+n // now: start of bucket b
	}
	dst = slices.Grow(dst[:0], len(src))[:len(src)]
	for _, e := range src {
		b := bucket(e)
		dst[ends[b]] = e
		ends[b]++ // ends at the bucket's end once every entry is placed
	}
	return dst, ends
}

func smallerRow(e pairEntry) int { j, _ := UnpackKey(e.key); return int(j) }
func largerRow(e pairEntry) int  { _, i := UnpackKey(e.key); return int(i) }

// flagBit returns bit when set holds, for packing bools into a wire byte.
func flagBit(set bool, bit uint8) uint8 {
	if set {
		return bit
	}
	return 0
}

// cacheImage is what a snapshot records of a cache ahead of the pair
// entries: a private copy when encoding, the decoded fields when decoding.
type cacheImage struct {
	params     Params
	seed       int64
	measure    vec.Measure
	rows       rowView
	dim        int
	sketchTime time.Duration
	shards     int
	// rec is walkPair's record buffer: the codec's reader and writer are
	// interfaces, so a buffer on walkPair's stack would escape, once a pair.
	rec [pairRecordBytes]byte
}

// walk is the cache snapshot layout: header, signature block, then the pair
// store shard by shard. Moving entries between a shard and the stream is
// the only direction-specific work, so the entry points supply it: load
// yields the entries to walk for a shard (none when decoding) and store
// receives each entry that walked clean.
func (im *cacheImage) walk(c *wire.Codec, load func(shard int) []pairEntry, store func(pairEntry)) {
	c.Header(cacheSnapMagic, CacheSnapshotVersion)
	p := &im.params
	p.Epsilon = c.F64(p.Epsilon)
	p.Delta = c.F64(p.Delta)
	p.Gamma = c.F64(p.Gamma)
	p.MaxHashes = int(c.U32(uint32(p.MaxHashes)))
	p.Step = int(c.U32(uint32(p.Step)))
	p.MaxDFFrac = c.F64(p.MaxDFFrac)
	p.Lite = c.U8(flagBit(p.Lite, 1)) != 0
	p.Workers = int(int32(c.U32(uint32(p.Workers))))
	im.seed = c.I64(im.seed)
	im.measure = vec.Measure(c.U8(uint8(im.measure)))
	im.rows.n = c.Count(im.rows.n, maxSnapRows, "row count")
	im.dim = int(c.U32(uint32(im.dim)))
	im.sketchTime = time.Duration(c.I64(int64(im.sketchTime)))
	if err := p.Validate(); err != nil {
		c.Fail("%v", err)
	}
	if im.measure != vec.CosineSim && im.measure != vec.JaccardSim {
		c.Fail("unknown measure %d", int(im.measure))
	}
	if im.dim < 1 || im.dim > maxSnapRows {
		c.Fail("dimension %d out of range", im.dim)
	}

	// The sketch kind is a pure function of the measure (NewCache builds
	// minhash for Jaccard, SRP for cosine) and every signature has the exact
	// schedule length — the comparison kernels index both signatures without
	// bounds checks, so a ragged or mislabeled sketch block would make later
	// probes panic instead of failing the walk here.
	kind := uint8(sketchKindSRP)
	if im.measure == vec.JaccardSim {
		kind = sketchKindMinhash
	}
	if got := c.U8(kind); got != kind {
		c.Fail("sketch kind %d does not match measure %v", got, im.measure)
	}
	if kind == sketchKindMinhash {
		im.rows.minSigs = walkSigs(c, im.rows.minSigs, im.rows.n, p.MaxHashes, c.U32)
	} else {
		im.rows.srpSigs = walkSigs(c, im.rows.srpSigs, im.rows.n, (p.MaxHashes+63)/64, c.U64)
	}

	im.shards = c.Count(im.shards, maxSnapShards, "shard count")
	if im.shards < 1 {
		c.Fail("shard count %d out of range", im.shards)
	}
	pair := func(e pairEntry) {
		if e = im.walkPair(c, e); c.Err() == nil {
			store(e)
		}
	}
	for sh := 0; sh < im.shards && c.Err() == nil; sh++ {
		entries := load(sh)
		count := c.Count(len(entries), maxSnapRows, "shard entry count")
		wire.Each(c, entries, count, pair)
	}
}

// walkSigs walks the signature block: n signatures of exactly width words.
func walkSigs[T any](c *wire.Codec, sigs [][]T, n, width int, word func(T) T) [][]T {
	return wire.Slice(c, sigs, n, func(sig []T) []T {
		ln := int(c.U32(uint32(len(sig))))
		if ln != width {
			c.Fail("signature length %d, want %d for the hash schedule", ln, width)
		}
		return wire.Slice(c, sig, ln, word)
	})
}

// pairRecordBytes is the width of one pair entry on the wire: key u64, M
// u32, N u32, flags u8, exact f32.
const pairRecordBytes = 21

// walkPair walks one pair entry as a single fixed-width record — the same
// bytes as walking its five fields one by one, at a fifth of the codec
// calls, which is most of what a snapshot of many pairs costs to walk.
func (im *cacheImage) walkPair(c *wire.Codec, e pairEntry) pairEntry {
	ps, rec := &e.ps, im.rec[:]
	binary.LittleEndian.PutUint64(rec[0:], e.key)
	binary.LittleEndian.PutUint32(rec[8:], uint32(ps.M))
	binary.LittleEndian.PutUint32(rec[12:], uint32(ps.N))
	rec[16] = flagBit(ps.Done, pairFlagDone) | flagBit(ps.HasExact, pairFlagHasExact)
	binary.LittleEndian.PutUint32(rec[17:], math.Float32bits(ps.Exact))
	c.Bytes(rec)
	e.key = binary.LittleEndian.Uint64(rec[0:])
	ps.M = int32(binary.LittleEndian.Uint32(rec[8:]))
	ps.N = int32(binary.LittleEndian.Uint32(rec[12:]))
	ps.Done = rec[16]&pairFlagDone != 0
	ps.HasExact = rec[16]&pairFlagHasExact != 0
	ps.Exact = math.Float32frombits(binary.LittleEndian.Uint32(rec[17:]))
	if i, j := UnpackKey(e.key); i < 0 || j <= i || int(j) >= im.rows.n {
		c.Fail("pair key (%d,%d) out of range for %d rows", i, j, im.rows.n)
	} else if ps.M < 0 || ps.N < ps.M || !im.params.onSchedule(ps.N) {
		c.Fail("pair (%d,%d): evidence %d/%d out of range or off the hash schedule", i, j, ps.M, ps.N)
	}
	return e
}

// EncodeSnapshot serializes the cache — params, seed, sketches, and the
// pair store in the v2 shard layout — to w in the versioned binary snapshot
// format. It is safe to call while probes or appends are in flight: the row
// view is captured atomically, appends are held off for the duration (so no
// probe can write pairs beyond the encoded row count), and each row's run is
// copied under its read lock — the snapshot sees a consistent monotone
// prefix of the cache's evidence. Encoding is deterministic for a quiescent
// cache.
func (c *Cache) EncodeSnapshot(w io.Writer) error {
	c.appendMu.Lock()
	defer c.appendMu.Unlock()
	im := cacheImage{
		params:     c.Params,
		seed:       c.Seed,
		measure:    c.Measure,
		rows:       c.rows(),
		dim:        c.dim,
		sketchTime: c.SketchTime,
		shards:     snapshotShards,
	}
	// Runs visit in (larger row, smaller row) order; stable by the smaller
	// row that is ascending key order, then stable by shard.
	byRow, rows := c.Pairs.entries()
	byKey, _ := countingSort(byRow, nil, rows, smallerRow)
	wireOrder, ends := countingSort(byKey, byRow, snapshotShards, snapshotShard)
	shard := func(sh int) []pairEntry {
		if sh == 0 {
			return wireOrder[:ends[0]]
		}
		return wireOrder[ends[sh-1]:ends[sh]]
	}
	wc := wire.NewEncoder(w, snapErrors)
	im.walk(wc, shard, func(pairEntry) {})
	return wc.Finish()
}

// DecodeSnapshot reads a cache snapshot written by EncodeSnapshot,
// reconstructing the decision tables (which are pure functions of the
// params) and leaving the per-threshold prune bounds to be rebuilt lazily.
// The returned cache is immediately usable by SearchWorkers and yields
// byte-identical probe results to the cache it was encoded from.
func DecodeSnapshot(r io.Reader) (*Cache, error) {
	var im cacheImage
	var walked []pairEntry
	wc := wire.NewDecoder(r, snapErrors)
	im.walk(wc, func(int) []pairEntry { return nil }, func(e pairEntry) {
		if len(walked) == cap(walked) {
			// Double: append grows a large slice by a quarter at a time,
			// allocating five times the final size on the way.
			walked = slices.Grow(walked, len(walked)+1)
		}
		walked = append(walked, e)
	})
	if err := wc.Finish(); err != nil {
		return nil, err
	}

	c := &Cache{
		Params:     im.params,
		Measure:    im.measure,
		n:          im.rows.n,
		minSigs:    im.rows.minSigs,
		srpSigs:    im.rows.srpSigs,
		dim:        im.dim,
		Seed:       im.seed,
		Pairs:      pairStoreOf(im.rows.n, walked),
		SketchTime: im.sketchTime,
		pruneMax:   make(map[float64][]int32),
	}
	c.buildTables()
	return c, nil
}

// pairStoreOf builds the store of rows rows holding the walked entries, in
// any order and every key below rows: stable by the smaller row then by the
// larger is (larger, smaller) order, one run after another. A key the walk
// carried twice keeps its deepest state, later entries winning ties, as a
// sequence of Updates would.
func pairStoreOf(rows int, walked []pairEntry) *PairStore {
	bySmaller, _ := countingSort(walked, nil, rows, smallerRow)
	sorted, _ := countingSort(bySmaller, walked, rows, largerRow)
	unique := sorted[:0]
	for _, e := range sorted {
		if last := len(unique) - 1; last >= 0 && unique[last].key == e.key {
			if evidence(e.ps) >= evidence(unique[last].ps) {
				unique[last].ps = e.ps
			}
			continue
		}
		unique = append(unique, e)
	}
	s := NewPairStore()
	dir := s.runs(rows)
	js, st := make([]int32, len(unique)), make([]PairState, len(unique))
	for lo := 0; lo < len(unique); {
		i := largerRow(unique[lo])
		hi := lo
		for ; hi < len(unique) && largerRow(unique[hi]) == i; hi++ {
			js[hi], st[hi] = int32(smallerRow(unique[hi])), unique[hi].ps
		}
		dir[i].js, dir[i].st = js[lo:hi:hi], st[lo:hi:hi]
		lo = hi
	}
	s.count.Store(int64(len(unique)))
	return s
}
