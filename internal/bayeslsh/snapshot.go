package bayeslsh

import (
	"encoding/binary"
	"errors"
	"io"
	"math"
	"time"

	"plasmahd/internal/vec"
	"plasmahd/internal/wire"
)

// Snapshot codec for the knowledge cache. The format is a versioned binary
// stream:
//
//	magic   "PLHDKCSN"                       (8 bytes)
//	version uint16                           (currently 3)
//	payload params, seed, measure, N, dim, sketch time, sketches,
//	        then the pair store as it sits: one run per row i in [0, N)
//	crc     uint32 (Castagnoli) over magic+version+payload
//
// Version 2 (live ingest) added the feature-space dimension after the row
// count, so a restored cache can rebuild its SRP sketcher and keep accepting
// appended rows. Version 3 writes the pair store's own layout: row i's run
// is a count of at most i, then one record per pair (j, i) with j strictly
// ascending below i, so a record's position names its larger row and the
// packed key leaves the wire.
//
// cacheImage.walk is the one description of the payload: internal/wire
// drives it in both directions, so every range and structure check in it
// guards the encoder as well as the decoder. All integers are little-endian
// fixed width. Encoding is deterministic: the same cache state always
// produces the same bytes, because runs are written in row order and each
// in ascending j. The walk enforces that order and refuses flag bits it does
// not know, so a stream that decodes is exactly the bytes its cache encodes
// to: a pair carried twice or out of order does not decode at all. A
// corrupted or truncated snapshot fails loudly instead of producing a
// silently-wrong cache.

// cacheSnapMagic identifies a knowledge-cache snapshot stream.
var cacheSnapMagic = [8]byte{'P', 'L', 'H', 'D', 'K', 'C', 'S', 'N'}

// CacheSnapshotVersion is the current cache snapshot format version.
const CacheSnapshotVersion uint16 = 3

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

	// A generous ceiling that a real cache never exceeds but a corrupt length
	// field easily does, so a walk fails before acting on it.
	maxSnapRows = 1 << 28

	pairFlagsKnown = pairFlagDone | pairFlagHasExact
)

// flagBit returns bit when set holds, for packing bools into a wire byte.
func flagBit(set bool, bit uint8) uint8 {
	if set {
		return bit
	}
	return 0
}

// cacheImage is what a snapshot records of a cache ahead of the pair
// records: a private copy when encoding, the decoded fields when decoding.
type cacheImage struct {
	params     Params
	seed       int64
	measure    vec.Measure
	rows       rowView
	dim        int
	sketchTime time.Duration
}

// walk is the cache snapshot layout: header, signature block, then the pair
// store run by run. Moving a run between the store and the stream is the
// only direction-specific work, so the entry points supply it: load yields
// row i's records to walk (none when decoding) and store receives each
// row's records once they walked clean.
func (im *cacheImage) walk(c *wire.Codec, load func(i int) []pairRec, store func(i int, run []pairRec)) {
	c.Header(cacheSnapMagic, CacheSnapshotVersion)
	p := &im.params
	p.Epsilon = c.F64(p.Epsilon)
	p.Delta = c.F64(p.Delta)
	p.Gamma = c.F64(p.Gamma)
	p.MaxHashes = int(c.U32(uint32(p.MaxHashes)))
	p.Step = int(c.U32(uint32(p.Step)))
	p.MaxDFFrac = c.F64(p.MaxDFFrac)
	if lite := c.U8(flagBit(p.Lite, 1)); lite > 1 {
		c.Fail("lite byte %d is not 0 or 1", lite)
	} else {
		p.Lite = lite == 1
	}
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
	if im.dim < 1 || im.dim > vec.MaxDim {
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
		im.rows.minSigs = walkSigs(c, im.rows.minSigs, im.rows.n, p.MaxHashes, wire.U32s)
	} else {
		im.rows.srpSigs = walkSigs(c, im.rows.srpSigs, im.rows.n, (p.MaxHashes+63)/64, wire.U64s)
	}

	for i := 0; i < im.rows.n && c.Err() == nil; i++ {
		if run := im.walkRun(c, i, load(i)); c.Err() == nil {
			store(i, run)
		}
	}
}

// walkSigs walks the signature block: n signatures of exactly width words,
// each a length word and then its words as one block.
func walkSigs[T any](c *wire.Codec, sigs [][]T, n, width int, block func(*wire.Codec, []T, int) []T) [][]T {
	return wire.Slice(c, sigs, n, func(sig []T) []T {
		ln := int(c.U32(uint32(len(sig))))
		if ln != width {
			c.Fail("signature length %d, want %d for the hash schedule", ln, width)
		}
		return block(c, sig, ln)
	})
}

// walkRun walks row i's run: its length, at most i, then its records as one
// block, whose smaller rows ascend strictly below i, whose evidence sits on
// the hash schedule and whose flags carry no unknown bit.
func (im *cacheImage) walkRun(c *wire.Codec, i int, run []pairRec) []pairRec {
	n := c.Count(len(run), i, "run length")
	var flags uint8 // every record's flag bits, or-ed
	run = wire.Fixed(c, run, n, pairRecordBytes, packPairs, func(dst []pairRec, src []byte) {
		for k := range dst {
			b := src[k*pairRecordBytes:]
			flags |= b[12]
			dst[k] = getPair(b)
		}
	})
	prev := int32(-1)
	for _, r := range run {
		if ps := r.ps; r.j <= prev || int(r.j) >= i {
			c.Fail("row %d: pair row %d after %d, want strictly ascending below %d", i, r.j, prev, i)
			break
		} else if ps.M < 0 || ps.N < ps.M || !im.params.onSchedule(ps.N) {
			c.Fail("pair (%d,%d): evidence %d/%d out of range or off the hash schedule", r.j, i, ps.M, ps.N)
			break
		}
		prev = r.j
	}
	if flags&^pairFlagsKnown != 0 {
		c.Fail("row %d: pair flags %#x carry unknown bits", i, flags)
	}
	return run
}

// pairRecordBytes is the width of one pair record on the wire: j u32, M
// u32, N u32, flags u8, exact f32.
const pairRecordBytes = 17

// packPairs packs a chunk of pair records.
func packPairs(dst []byte, src []pairRec) {
	for k, r := range src {
		putPair(dst[k*pairRecordBytes:], r)
	}
}

// putPair packs one pair record.
func putPair(b []byte, r pairRec) {
	ps := &r.ps
	binary.LittleEndian.PutUint32(b[0:], uint32(r.j))
	binary.LittleEndian.PutUint32(b[4:], uint32(ps.M))
	binary.LittleEndian.PutUint32(b[8:], uint32(ps.N))
	b[12] = flagBit(ps.Done, pairFlagDone) | flagBit(ps.HasExact, pairFlagHasExact)
	binary.LittleEndian.PutUint32(b[13:], math.Float32bits(ps.Exact))
}

// getPair unpacks one pair record; walkRun checks its flag bits.
func getPair(b []byte) pairRec {
	return pairRec{
		j: int32(binary.LittleEndian.Uint32(b[0:])),
		ps: PairState{
			M:        int32(binary.LittleEndian.Uint32(b[4:])),
			N:        int32(binary.LittleEndian.Uint32(b[8:])),
			Done:     b[12]&pairFlagDone != 0,
			HasExact: b[12]&pairFlagHasExact != 0,
			Exact:    math.Float32frombits(binary.LittleEndian.Uint32(b[13:])),
		},
	}
}

// EncodeSnapshot serializes the cache — params, seed, sketches, and the
// pair store run by run — to w in the versioned binary snapshot format. It
// is safe to call while probes or appends are in flight: the row view is
// captured atomically, appends are held off for the duration (so no probe
// can write pairs beyond the encoded row count, and the runs past it are
// empty), and each row's run is copied under its read lock, which is
// released before the copy is written — the snapshot sees a consistent
// monotone prefix of the cache's evidence, and a slow writer never holds up
// a probe. Encoding is deterministic for a quiescent cache.
func (c *Cache) EncodeSnapshot(w io.Writer) error {
	c.appendMu.Lock()
	defer c.appendMu.Unlock()
	im := cacheImage{
		params:     c.Params,
		seed:       c.Seed,
		measure:    c.Measure,
		rows:       *c.view.Load(),
		dim:        c.dim,
		sketchTime: c.SketchTime,
	}
	var scratch []pairRec
	load := func(i int) []pairRec {
		scratch = c.Pairs.appendRun(scratch[:0], i)
		return scratch
	}
	wc := wire.NewEncoder(w, snapErrors)
	im.walk(wc, load, func(int, []pairRec) {})
	return wc.Finish()
}

// DecodeSnapshot reads a cache snapshot written by EncodeSnapshot,
// reconstructing the decision tables (which are pure functions of the
// params) and leaving the per-threshold prune bounds to be rebuilt lazily.
// Each run is kept as the records it decoded into: the wire and the store
// hold a run alike.
// The returned cache is immediately usable by SearchWorkers and yields
// byte-identical probe results to the cache it was encoded from.
func DecodeSnapshot(r io.Reader) (*Cache, error) {
	var im cacheImage
	pairs := NewPairStore()
	wc := wire.NewDecoder(r, snapErrors)
	im.walk(wc, func(int) []pairRec { return nil }, func(i int, run []pairRec) {
		if len(run) > 0 {
			pairs.runs(i + 1)[i].recs = run
			pairs.count.Add(int64(len(run)))
		}
	})
	if err := wc.Finish(); err != nil {
		return nil, err
	}

	c := newCache(im.params, im.measure, im.dim, im.seed, pairs)
	c.view.Store(&im.rows)
	c.SketchTime = im.sketchTime
	return c, nil
}
