package bayeslsh

import (
	"errors"
	"io"
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
//	        pair store shard-by-shard (entries sorted by key)
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
// order within each shard. A corrupted or truncated snapshot fails loudly
// instead of producing a silently-wrong cache.

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
)

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

// walkPair walks one pair-store entry.
func (im *cacheImage) walkPair(c *wire.Codec, e pairEntry) pairEntry {
	e.key = c.U64(e.key)
	ps := &e.ps
	ps.M = int32(c.U32(uint32(ps.M)))
	ps.N = int32(c.U32(uint32(ps.N)))
	flags := c.U8(flagBit(ps.Done, pairFlagDone) | flagBit(ps.HasExact, pairFlagHasExact))
	ps.Done = flags&pairFlagDone != 0
	ps.HasExact = flags&pairFlagHasExact != 0
	ps.Exact = c.F32(ps.Exact)
	if i, j := UnpackKey(e.key); i < 0 || j <= i || int(j) >= im.rows.n {
		c.Fail("pair key (%d,%d) out of range for %d rows", i, j, im.rows.n)
	} else if ps.M < 0 || ps.N < ps.M || !im.params.onSchedule(ps.N) {
		c.Fail("pair (%d,%d): evidence %d/%d out of range or off the hash schedule", i, j, ps.M, ps.N)
	}
	return e
}

// EncodeSnapshot serializes the cache — params, seed, sketches, and the
// pair store shard-by-shard — to w in the versioned binary snapshot format.
// It is safe to call while probes or appends are in flight: the row view is
// captured atomically, appends are held off for the duration (so no probe
// can write pairs beyond the encoded row count), and each pair-store stripe
// is captured under its read lock — the snapshot sees a consistent monotone
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
		shards:     pairStoreShards,
	}
	wc := wire.NewEncoder(w, snapErrors)
	im.walk(wc, c.Pairs.sortedShard, func(pairEntry) {})
	return wc.Finish()
}

// DecodeSnapshot reads a cache snapshot written by EncodeSnapshot,
// reconstructing the decision tables (which are pure functions of the
// params) and leaving the per-threshold prune bounds to be rebuilt lazily.
// The returned cache is immediately usable by SearchWorkers and yields
// byte-identical probe results to the cache it was encoded from.
func DecodeSnapshot(r io.Reader) (*Cache, error) {
	var im cacheImage
	pairs := NewPairStore()
	wc := wire.NewDecoder(r, snapErrors)
	im.walk(wc, func(int) []pairEntry { return nil }, func(e pairEntry) { pairs.Update(e.key, e.ps) })
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
		Pairs:      pairs,
		SketchTime: im.sketchTime,
		pruneMax:   make(map[float64][]int32),
	}
	c.buildTables()
	return c, nil
}
