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

// Snapshot codec for the knowledge cache, which is the whole state of a
// probe session: a restart (or an eviction spill) costs nothing but the
// decode. The format is a versioned binary stream:
//
//	magic   "PLHDSESS"                       (8 bytes)
//	version uint16                           (currently 8)
//	payload params, seed, the dataset (name, dim, measure, rows), the append
//	        count, the probe history, sketch time, sketches, then the pair
//	        store as it sits: one run per row i in [0, N)
//	crc     uint32 (Castagnoli) over magic+version+payload
//
// The stream continues the session snapshot's version sequence. Versions 2
// to 7 wrapped a separate cache stream ("PLHDKCSN", versions 2 and 3) in a
// session stream of their own; version 8 is the one stream, so the row
// count, dimension and measure are written once and nothing decoded twice
// has to agree. Row i's run is a count of at most i, then one record per
// pair (j, i) with j strictly ascending below i, so a record's position
// names its larger row and the packed key leaves the wire. A row's values
// are written for cosine datasets only: a Jaccard row is its index set.
// Streams of any other version or magic are refused, never half-read.
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

// snapMagic identifies a snapshot stream.
var snapMagic = [8]byte{'P', 'L', 'H', 'D', 'S', 'E', 'S', 'S'}

// SnapshotVersion is the current snapshot format version.
const SnapshotVersion uint16 = 8

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
	// maxNameLen caps the dataset name.
	maxNameLen = 1 << 16

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
// rows.ds points at a dataset header of the image's own, since the walk
// assigns every field it visits.
type cacheImage struct {
	params     Params
	seed       int64
	rows       rowView
	history    probeHistory
	sketchTime time.Duration
}

// walk is the snapshot layout: header, dataset, history, signature block,
// then the pair store run by run. Moving a run between the store and the
// stream is the only direction-specific work, so the entry points supply it:
// load yields row i's records to walk (none when decoding) and store
// receives each row's records once they walked clean.
func (im *cacheImage) walk(c *wire.Codec, load func(i int) []pairRec, store func(i int, run []pairRec)) {
	c.Header(snapMagic, SnapshotVersion)
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
	if err := p.Validate(); err != nil {
		c.Fail("%v", err)
	}
	ds := im.rows.ds
	walkDataset(c, ds)
	im.rows.appends = int64(c.U32(uint32(im.rows.appends)))
	im.history.walk(c)
	im.sketchTime = time.Duration(c.I64(int64(im.sketchTime)))

	// The sketch kind is a pure function of the measure (NewCache builds
	// minhash for Jaccard, SRP for cosine) and every signature has the exact
	// schedule length — the comparison kernels index both signatures without
	// bounds checks, so a ragged or mislabeled sketch block would make later
	// probes panic instead of failing the walk here.
	kind := uint8(sketchKindSRP)
	if ds.Measure == vec.JaccardSim {
		kind = sketchKindMinhash
	}
	if got := c.U8(kind); got != kind {
		c.Fail("sketch kind %d does not match measure %v", got, ds.Measure)
	}
	n := ds.N()
	if kind == sketchKindMinhash {
		im.rows.minSigs = walkSigs(c, im.rows.minSigs, n, p.MaxHashes, wire.U32s)
	} else {
		im.rows.srpSigs = walkSigs(c, im.rows.srpSigs, n, (p.MaxHashes+63)/64, wire.U64s)
	}

	for i := 0; i < n && c.Err() == nil; i++ {
		if run := im.walkRun(c, i, load(i)); c.Err() == nil {
			store(i, run)
		}
	}
}

// walkDataset walks a dataset verbatim (post-normalization): its name,
// dimension and measure, then per row the non-zero count, the indices, then
// the values for cosine only, since a Jaccard row is its index set. A
// decoded Jaccard row has nil Values, and a Jaccard row that carries values
// in memory encodes exactly as one without. Every row passes the one row
// check. Restored rows are used exactly as stored — they are NOT
// re-normalized, which would perturb the float values and break restart
// determinism.
func walkDataset(c *wire.Codec, ds *vec.Dataset) {
	ds.Name = c.Str(ds.Name, maxNameLen)
	ds.Dim = c.Count(ds.Dim, vec.MaxDim, "dataset dimension")
	ds.Measure = vec.Measure(c.U8(uint8(ds.Measure)))
	n := c.Count(len(ds.Rows), maxSnapRows, "dataset row count")
	if ds.Dim < 1 {
		c.Fail("dataset dimension %d out of range [1,%d]", ds.Dim, vec.MaxDim)
	}
	if ds.Measure != vec.CosineSim && ds.Measure != vec.JaccardSim {
		c.Fail("unknown dataset measure %d", int(ds.Measure))
	}
	ds.Rows = wire.Slice(c, ds.Rows, n, func(row vec.Sparse) vec.Sparse {
		nnz := c.Count(len(row.Indices), ds.Dim, "row non-zero count")
		row.Indices = wire.I32s(c, row.Indices, nnz)
		if ds.Measure == vec.CosineSim {
			row.Values = wire.F64s(c, row.Values, nnz)
		}
		if err := row.Check(ds.Dim, ds.Measure); err != nil {
			c.Fail("dataset row: %v", err)
		}
		return row
	})
}

// walk walks the probe history: the probe count, the distinct thresholds
// (strictly increasing, which also rules out NaN, and no more of them than
// probes), then the processing-time total.
func (h *probeHistory) walk(c *wire.Codec) {
	h.count = int(c.I64(int64(h.count)))
	n := c.Count(len(h.thresholds), min(h.count, maxSnapRows), "distinct threshold count")
	h.thresholds = wire.F64s(c, h.thresholds, n)
	prev := math.Inf(-1)
	for _, t := range h.thresholds {
		if !(t > prev) {
			c.Fail("probed thresholds not strictly increasing")
			break
		}
		prev = t
	}
	h.total = time.Duration(c.I64(int64(h.total)))
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

// EncodeSnapshot serializes the cache — params, seed, dataset, append
// count, probe history, sketches, and the pair store run by run — to w in
// the versioned binary snapshot format. It is safe to call while probes or
// appends are in flight: appends are held off for the duration and the row
// view is captured once (so no probe can write pairs beyond the encoded
// rows, and the runs past them are empty), and each row's run is copied
// under its read lock, which is released before the copy is written — the
// snapshot sees a consistent monotone prefix of the cache's evidence, and a
// slow writer never holds up a probe. Encoding is deterministic for a
// quiescent cache.
func (c *Cache) EncodeSnapshot(w io.Writer) error {
	c.appendMu.Lock()
	defer c.appendMu.Unlock()
	im := cacheImage{
		params:     c.Params,
		seed:       c.Seed,
		rows:       *c.view.Load(),
		history:    c.probes(),
		sketchTime: c.SketchTime,
	}
	// The walk assigns every field it visits, so it gets a private shallow
	// copy of the dataset: probes and readers share the live one and take
	// no lock.
	ds := *im.rows.ds
	im.rows.ds = &ds
	var scratch []pairRec
	load := func(i int) []pairRec {
		scratch = c.Pairs.appendRun(scratch[:0], i)
		return scratch
	}
	wc := wire.NewEncoder(w, snapErrors)
	im.walk(wc, load, func(int, []pairRec) {})
	return wc.Finish()
}

// DecodeSnapshot reads a snapshot written by EncodeSnapshot, reconstructing
// the decision tables (which are pure functions of the params) and leaving
// the per-threshold prune bounds to be rebuilt lazily. Each run is kept as
// the records it decoded into: the wire and the store hold a run alike.
// The returned cache is immediately usable by SearchWorkers over its own
// Dataset and yields byte-identical probe results to the cache it was
// encoded from.
func DecodeSnapshot(r io.Reader) (*Cache, error) {
	im := cacheImage{rows: rowView{ds: new(vec.Dataset)}}
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

	c := newCache(im.params, im.rows.ds.Measure, im.seed, pairs)
	c.view.Store(&im.rows)
	c.history = im.history
	c.SketchTime = im.sketchTime
	return c, nil
}
