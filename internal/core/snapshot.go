package core

import (
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"time"

	"plasmahd/internal/bayeslsh"
	"plasmahd/internal/vec"
	"plasmahd/internal/wire"
)

// Session snapshots make the knowledge cache durable: everything a probe
// session has learned — the sketches, the memoized pair evidence, and the
// probe history — serialized together with the rows it describes, so a
// restart (or an eviction spill) costs nothing but the decode. The stream
// is versioned and checksummed:
//
//	magic   "PLHDSESS"                      (8 bytes)
//	version uint16                          (currently 7)
//	payload the dataset rows, the append epoch, the probe history, and the
//	        bayeslsh cache snapshot
//	crc     uint32 (Castagnoli) over magic+version+payload
//
// Version 2 (live ingest) added the append epoch, so a warm restart of a
// grown session is byte-identical: its re-snapshot reproduces the saved
// bytes exactly. Version 3 shrank the probe history from one record per
// probe, pair list included, to the probe count, the distinct probed
// thresholds and the summed processing time, so a snapshot's size no longer
// grows with the number of probes served. Version 4 changed no field of its
// own: it embeds cache snapshot version 3. Version 6 gives the stream one
// shape: every session embeds its rows, where earlier versions let a session
// created from a registry spec store the spec and a content hash instead.
// Version 7 writes a row's values for cosine datasets only: a Jaccard row is
// its index set, so a Jaccard stream carries no values at all; a cosine
// stream is the version 6 one byte for byte up to the version and the CRC.
// Streams older than the current version are refused, never half-read.
//
// sessionImage.walk is the one description of the payload ahead of the
// cache stream: internal/wire drives it in both directions, so its checks
// guard Snapshot as well as RestoreSession. RestoreSession additionally
// validates the decoded cache against the dataset it will probe (row count,
// measure and dimension) and, when the caller supplies that dataset, its
// rows against the stream's own; a mismatch is a typed error, never a
// silently-wrong cache.

// sessSnapMagic identifies a session snapshot stream.
var sessSnapMagic = [8]byte{'P', 'L', 'H', 'D', 'S', 'E', 'S', 'S'}

// SessionSnapshotVersion is the current session snapshot format version.
const SessionSnapshotVersion uint16 = 7

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

// sessionImage is what a session snapshot records ahead of the cache
// stream: filled from the session when encoding, by the walk when decoding.
type sessionImage struct {
	data    *vec.Dataset
	epoch   int64
	history probeHistory
}

// walk is the session snapshot layout up to the embedded cache stream.
func (im *sessionImage) walk(c *wire.Codec) {
	c.Header(sessSnapMagic, SessionSnapshotVersion)
	walkDataset(c, im.data)
	im.epoch = int64(c.U32(uint32(im.epoch)))
	im.history.walk(c)
}

// walkDataset walks a dataset verbatim (post-normalization): per row the
// non-zero count, the indices, then the values for cosine only, since a
// Jaccard row is its index set. A decoded Jaccard row has nil Values, and a
// Jaccard row that carries values in memory encodes exactly as one without.
// Restored rows are used exactly as stored — they are NOT re-normalized,
// which would perturb the float values and break restart determinism.
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

// Snapshot serializes the session — its dataset rows, the append epoch, the
// probe history, and the full knowledge cache — to w. It is safe to call
// while probes or appends are in flight: appends are held off for the
// duration (appendMu, same order as AppendRows takes it), so the dataset
// view, the epoch, and the cache rows are captured consistently; probes
// contribute a monotone prefix of evidence as before.
func (s *Session) Snapshot(w io.Writer) error {
	s.appendMu.Lock()
	defer s.appendMu.Unlock()
	// The walk assigns every field it visits, so it gets a private shallow
	// copy: probes and readers share the live dataset and take no lock.
	ds := *s.Dataset()
	im := sessionImage{data: &ds, epoch: s.appendEpoch.Load()}
	s.mu.Lock()
	im.history = s.history // add never writes into an array it has shared
	s.mu.Unlock()

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
// dataset it will probe. ds may be nil, in which case the session probes
// the rows the stream carries. A non-nil ds must equal those rows — same
// row count, measure, dimension and content — or the restore is refused.
// Any disagreement between the snapshot's cache and the dataset is a
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
	cache, err := bayeslsh.DecodeSnapshot(c)
	if err != nil {
		return nil, err
	}
	if err := c.Finish(); err != nil {
		return nil, err
	}

	if ds == nil {
		ds = im.data
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
	// Content check: a caller's dataset of the right shape but different
	// vectors (a different upload) would make every cached sketch and pair
	// state wrong. Rows taken from the stream are what the cache was saved
	// with.
	if ds != im.data && !sameRows(ds, im.data) {
		return nil, &SnapshotMismatchError{Field: "content", Snapshot: "the rows it carries", Dataset: "different rows"}
	}

	s := &Session{Cache: cache, history: im.history}
	s.ds.Store(ds)
	s.appendEpoch.Store(im.epoch)
	return s, nil
}

// sameRows reports whether a and b hold the same rows: dimension, measure,
// row count, every row's indices and, for cosine, its value bits. Jaccard
// reads no values, so values a Jaccard row carries in memory do not count.
func sameRows(a, b *vec.Dataset) bool {
	if a.Dim != b.Dim || a.Measure != b.Measure || len(a.Rows) != len(b.Rows) {
		return false
	}
	sameBits := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	for i, row := range a.Rows {
		if !slices.Equal(row.Indices, b.Rows[i].Indices) {
			return false
		}
		if a.Measure == vec.CosineSim && !slices.EqualFunc(row.Values, b.Rows[i].Values, sameBits) {
			return false
		}
	}
	return true
}
