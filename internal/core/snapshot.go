package core

import (
	"fmt"
	"io"
	"math"
	"slices"

	"plasmahd/internal/bayeslsh"
	"plasmahd/internal/vec"
)

// Session snapshots make the knowledge cache durable: a session's state is
// its cache — the dataset rows, the sketches, the memoized pair evidence,
// the append count and the probe history — so a session snapshot is the
// cache's own stream (bayeslsh.Cache.EncodeSnapshot), and a restart (or an
// eviction spill) costs nothing but the decode. Its format, versions and
// typed errors (bayeslsh.ErrSnapshot*) belong to bayeslsh. RestoreSession
// adds one check of its own: a dataset the caller supplies must equal the
// rows the stream carries; a mismatch is a typed error, never a
// silently-wrong cache.

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

// Snapshot serializes the session — its knowledge cache, rows and probe
// history included — to w. It is safe to call while probes or appends are
// in flight; see bayeslsh.Cache.EncodeSnapshot.
func (s *Session) Snapshot(w io.Writer) error { return s.Cache.EncodeSnapshot(w) }

// RestoreSession decodes a session snapshot. ds may be nil, in which case
// the session probes the rows the stream carries. A non-nil ds must equal
// those rows — same row count, measure, dimension and content — or the
// restore is refused with a *SnapshotMismatchError: a wrong cache is
// refused, never silently probed.
//
// A restored session is byte-identical to the one that was snapshotted:
// subsequent probes return exactly the results an uninterrupted session
// would have produced, for any worker count.
func RestoreSession(r io.Reader, ds *vec.Dataset) (*Session, error) {
	cache, err := bayeslsh.DecodeSnapshot(r)
	if err != nil {
		return nil, err
	}
	if ds != nil {
		own := cache.Dataset()
		if ds.N() != own.N() {
			return nil, &SnapshotMismatchError{Field: "rows", Snapshot: own.N(), Dataset: ds.N()}
		}
		if ds.Measure != own.Measure {
			return nil, &SnapshotMismatchError{Field: "measure", Snapshot: own.Measure.String(), Dataset: ds.Measure.String()}
		}
		if ds.Dim != own.Dim {
			return nil, &SnapshotMismatchError{Field: "dim", Snapshot: own.Dim, Dataset: ds.Dim}
		}
		// Content check: a caller's dataset of the right shape but
		// different vectors (a different upload) would make every cached
		// sketch and pair state wrong.
		if !sameRows(ds, own) {
			return nil, &SnapshotMismatchError{Field: "content", Snapshot: "the rows it carries", Dataset: "different rows"}
		}
	}
	return &Session{Cache: cache}, nil
}

// sameRows reports whether a and b, of one measure and row count, hold the
// same rows: every row's indices and, for cosine, its value bits. Jaccard
// reads no values, so values a Jaccard row carries in memory do not count.
func sameRows(a, b *vec.Dataset) bool {
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
