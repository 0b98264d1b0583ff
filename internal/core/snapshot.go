package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"time"

	"plasmahd/internal/bayeslsh"
	"plasmahd/internal/dataset"
	"plasmahd/internal/vec"
	"plasmahd/internal/wire"
)

// Session snapshots make the knowledge cache durable: everything a probe
// session has learned — the sketches, the memoized pair evidence, and the
// probe history — serialized so a restart (or an eviction spill) costs
// nothing but the decode. The stream is versioned and checksummed:
//
//	magic   "PLHDSESS"                      (8 bytes)
//	version uint16                          (currently 5)
//	payload dataset.Spec (binary codec), then either the dataset itself
//	        (for sessions over uploaded data that no spec can rebuild,
//	        and for grown sessions whose appended rows no spec covers) or
//	        the content hash of the rows the spec regenerates, the append
//	        epoch, the probe history, and the bayeslsh cache snapshot
//	crc     uint32 (Castagnoli) over magic+version+payload
//
// Version 2 (live ingest) added the append epoch after the dataset hash and
// widened the embed rule: a session that has absorbed appends embeds its
// dataset even when it has a spec, because the spec only reproduces the
// original rows. A warm restart of a grown session is byte-identical: its
// re-snapshot reproduces the saved bytes exactly. Version 3 shrank the probe
// history from one record per probe, pair list included, to the probe count,
// the distinct probed thresholds and the summed processing time, so a
// snapshot's size no longer grows with the number of probes served. Version
// 4 changed no field of its own: it embeds cache snapshot version 3.
// Version 5 carries the dataset content hash only when the dataset is not
// embedded: embedded rows are the stream's own, the checksum already covers
// them, and whoever could forge them could forge a matching hash too. A
// spec-backed v5 stream differs from v4 only in its version field.
//
// sessionImage.walk is the one description of the payload ahead of the
// cache stream: internal/wire drives it in both directions, so its checks
// guard Snapshot as well as RestoreSession. RestoreSession additionally
// validates the decoded cache against the dataset it will probe (row count
// and measure) and, when that dataset did not come out of the stream, against
// the content hash; a mismatch is a typed error, never a silently-wrong
// cache.

// sessSnapMagic identifies a session snapshot stream.
var sessSnapMagic = [8]byte{'P', 'L', 'H', 'D', 'S', 'E', 'S', 'S'}

// SessionSnapshotVersion is the current session snapshot format version.
const SessionSnapshotVersion uint16 = 5

// Typed session-snapshot failures.
var (
	// ErrSessionSnapshotMagic means the stream is not a session snapshot.
	ErrSessionSnapshotMagic = errors.New("core: not a session snapshot (bad magic)")
	// ErrSessionSnapshotVersion means an incompatible format version.
	ErrSessionSnapshotVersion = errors.New("core: unsupported session snapshot version")
	// ErrSessionSnapshotChecksum means the payload fails its CRC.
	ErrSessionSnapshotChecksum = errors.New("core: session snapshot checksum mismatch")
	// ErrSessionSnapshotCorrupt means a structural invariant failed.
	ErrSessionSnapshotCorrupt = errors.New("core: corrupt session snapshot")
	// ErrSnapshotNoDataset means the snapshot carries neither a spec nor an
	// embedded dataset, so RestoreSession needs the caller to supply one.
	ErrSnapshotNoDataset = errors.New("core: snapshot has no dataset spec or embedded data; pass the dataset explicitly")
)

// SnapshotMismatchError reports a snapshot that cannot serve the dataset it
// was asked to restore against — restoring it would mean probing with wrong
// evidence, so the restore is refused.
type SnapshotMismatchError struct {
	Field    string // which property disagrees: "rows", "measure", "dim", "content"
	Snapshot any    // the snapshot's value
	Dataset  any    // the dataset's value
}

func (e *SnapshotMismatchError) Error() string {
	return fmt.Sprintf("core: snapshot/dataset mismatch on %s: snapshot has %v, dataset has %v",
		e.Field, e.Snapshot, e.Dataset)
}

// sessErrors maps wire failures onto the typed errors above.
var sessErrors = wire.Errors{
	Magic:    ErrSessionSnapshotMagic,
	Version:  ErrSessionSnapshotVersion,
	Checksum: ErrSessionSnapshotChecksum,
	Corrupt:  ErrSessionSnapshotCorrupt,
}

const (
	snapMaxStringLen = 1 << 16
	snapMaxRows      = 1 << 28
)

// datasetHash fingerprints the dataset content a cache was built from:
// dim, measure, and every row verbatim (FNV-64a over their little-endian
// encodings). A snapshot that does not embed its dataset stores it, and a
// restore checks it whenever the dataset it will probe comes from outside
// the stream: a snapshot rehydrated from a spec whose generator output has
// changed across versions — or restored against the wrong upload of the
// right shape — is refused instead of probing sketches that describe
// different vectors. Embedded rows need no hash of their own; against a
// caller-supplied dataset they are hashed on the spot.
func datasetHash(ds *vec.Dataset) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	put(uint64(ds.Dim))
	put(uint64(ds.Measure))
	put(uint64(len(ds.Rows)))
	for _, row := range ds.Rows {
		put(uint64(len(row.Indices)))
		for _, ix := range row.Indices {
			put(uint64(uint32(ix)))
		}
		for _, v := range row.Values {
			put(math.Float64bits(v))
		}
	}
	return h.Sum64()
}

// sessionImage is what a session snapshot records ahead of the cache
// stream: filled from the session when encoding, by the walk when decoding.
type sessionImage struct {
	spec    []byte // dataset.Spec binary codec; empty for a zero spec
	embed   bool
	data    *vec.Dataset // walked only when embed
	hash    uint64       // walked only when not embed
	epoch   int64
	history probeHistory
}

// walk is the session snapshot layout up to the embedded cache stream.
func (im *sessionImage) walk(c *wire.Codec) {
	c.Header(sessSnapMagic, SessionSnapshotVersion)
	im.spec = c.Blob(im.spec, snapMaxStringLen)
	embed := uint8(0)
	if im.embed {
		embed = 1
	}
	if im.embed = c.U8(embed) == 1; im.embed {
		walkDataset(c, im.data)
	} else {
		im.hash = c.U64(im.hash)
	}
	im.epoch = int64(c.U32(uint32(im.epoch)))
	im.history.walk(c)
}

// walkDataset walks a dataset verbatim (post-normalization), for sessions
// over uploaded data that no registry spec can rebuild. Restored rows are
// used exactly as stored — they are NOT re-normalized, which would perturb
// the float values and break restart determinism.
func walkDataset(c *wire.Codec, ds *vec.Dataset) {
	ds.Name = c.Str(ds.Name, snapMaxStringLen)
	ds.Dim = c.Count(ds.Dim, vec.MaxDim, "dataset dimension")
	ds.Measure = vec.Measure(c.U8(uint8(ds.Measure)))
	n := c.Count(len(ds.Rows), snapMaxRows, "dataset row count")
	if ds.Measure != vec.CosineSim && ds.Measure != vec.JaccardSim {
		c.Fail("unknown dataset measure %d", int(ds.Measure))
	}
	ds.Rows = wire.Slice(c, ds.Rows, n, func(row vec.Sparse) vec.Sparse {
		nnz := c.Count(len(row.Indices), ds.Dim, "row non-zero count")
		row.Indices = wire.I32s(c, row.Indices, nnz)
		row.Values = wire.F64s(c, row.Values, nnz)
		if err := row.Check(ds.Dim); err != nil {
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
	n := c.Count(len(h.thresholds), min(h.count, snapMaxRows), "distinct threshold count")
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

// Snapshot serializes the session — dataset spec (or the data itself when
// no spec exists or appends have outgrown it), the append epoch, the probe
// history, and the full knowledge cache — to w. It is safe to call while
// probes or appends are in flight: appends are held off for the duration
// (appendMu, same order as AppendRows takes it), so the dataset view, the
// epoch, and the cache rows are captured consistently; probes contribute a
// monotone prefix of evidence as before.
func (s *Session) Snapshot(w io.Writer) error {
	s.appendMu.Lock()
	defer s.appendMu.Unlock()
	// The walk assigns every field it visits, so it gets a private shallow
	// copy: probes and readers share the live dataset and take no lock.
	ds := *s.Dataset()
	// Sessions without a spec embed the dataset so they can be rehydrated
	// from the snapshot alone (uploaded data has no recipe to replay), and
	// so do grown sessions: replaying the spec would reproduce only the
	// original rows, never the appended ones.
	im := sessionImage{
		embed: s.Spec.IsZero() || s.appendEpoch.Load() > 0,
		data:  &ds,
		epoch: s.appendEpoch.Load(),
	}
	if !im.embed {
		im.hash = datasetHash(&ds)
	}
	s.mu.Lock()
	im.history = s.history // add never writes into an array it has shared
	s.mu.Unlock()
	if !s.Spec.IsZero() {
		var err error
		if im.spec, err = s.Spec.MarshalBinary(); err != nil {
			return err
		}
	}

	c := wire.NewEncoder(w, sessErrors)
	im.walk(c)
	if c.Err() == nil {
		if err := s.Cache.EncodeSnapshot(c); err != nil {
			return err
		}
	}
	return c.Finish()
}

// RestoreSession decodes a session snapshot and validates it against the
// dataset it will probe. ds may be nil, in which case the dataset is
// rehydrated from the snapshot itself — loaded from the embedded spec, or
// taken verbatim from the embedded data; ErrSnapshotNoDataset is returned
// when the snapshot carries neither. Any disagreement between the snapshot
// and the dataset (row count, similarity measure, dimension, and the content
// hash for a dataset that did not come out of the stream) is a
// *SnapshotMismatchError: a wrong cache is refused, never silently probed.
//
// A restored session is byte-identical to the one that was snapshotted:
// subsequent probes return exactly the results an uninterrupted session
// would have produced, for any worker count.
func RestoreSession(r io.Reader, ds *vec.Dataset) (*Session, error) {
	im := sessionImage{data: new(vec.Dataset)}
	c := wire.NewDecoder(r, sessErrors)
	im.walk(c)
	if c.Err() != nil {
		return nil, c.Err()
	}
	var spec dataset.Spec
	if len(im.spec) > 0 {
		if err := spec.UnmarshalBinary(im.spec); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrSessionSnapshotCorrupt, err)
		}
	}
	cache, err := bayeslsh.DecodeSnapshot(c)
	if err != nil {
		return nil, err
	}
	if err := c.Finish(); err != nil {
		return nil, err
	}

	if ds == nil {
		switch {
		case im.embed:
			ds = im.data
		case !spec.IsZero():
			// Refuse a spec that cannot match the cache before paying the
			// generation cost: the snapshot records the row count the cache
			// was built over, and for kinds where the spec determines the
			// row count exactly a disagreement is already a mismatch.
			if rows, ok := spec.ExpectedRows(); ok && rows != cache.Rows() {
				return nil, &SnapshotMismatchError{Field: "rows", Snapshot: cache.Rows(), Dataset: rows}
			}
			ds, err = dataset.Load(spec)
			if err != nil {
				return nil, err
			}
		default:
			return nil, ErrSnapshotNoDataset
		}
	}

	if ds.N() != cache.Rows() {
		return nil, &SnapshotMismatchError{Field: "rows", Snapshot: cache.Rows(), Dataset: ds.N()}
	}
	if ds.Measure != cache.Measure {
		return nil, &SnapshotMismatchError{Field: "measure", Snapshot: cache.Measure.String(), Dataset: ds.Measure.String()}
	}
	if ds.Dim != cache.Dim() {
		return nil, &SnapshotMismatchError{Field: "dim", Snapshot: cache.Dim(), Dataset: ds.Dim}
	}
	// Content check: a dataset of the right shape but different vectors
	// (a registry generator that changed across versions, a different
	// upload) would make every cached sketch and pair state wrong. Rows
	// taken from the stream are what the cache was saved with.
	if ds != im.data {
		want := im.hash
		if im.embed {
			want = datasetHash(im.data)
		}
		if got := datasetHash(ds); got != want {
			return nil, &SnapshotMismatchError{
				Field:    "content",
				Snapshot: fmt.Sprintf("%016x", want),
				Dataset:  fmt.Sprintf("%016x", got),
			}
		}
	}

	s := &Session{Cache: cache, Spec: spec, history: im.history}
	s.ds.Store(ds)
	s.appendEpoch.Store(im.epoch)
	return s, nil
}
