package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"math"
	"os"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"plasmahd/internal/bayeslsh"
	"plasmahd/internal/dataset"
	"plasmahd/internal/vec"
	"plasmahd/internal/vec/vectest"
	"plasmahd/internal/wire"
	"plasmahd/internal/wire/wiretest"
)

func probeSeq(t *testing.T, s *Session, thresholds []float64) []*bayeslsh.Result {
	t.Helper()
	out := make([]*bayeslsh.Result, len(thresholds))
	for i, th := range thresholds {
		res, err := s.Probe(th)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = res
	}
	return out
}

func equalResults(t *testing.T, label string, a, b []*bayeslsh.Result) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d vs %d results", label, len(a), len(b))
	}
	for k := range a {
		ra, rb := a[k], b[k]
		if len(ra.Pairs) != len(rb.Pairs) {
			t.Fatalf("%s t=%v: %d vs %d pairs", label, ra.Threshold, len(ra.Pairs), len(rb.Pairs))
		}
		for i := range ra.Pairs {
			if ra.Pairs[i] != rb.Pairs[i] {
				t.Fatalf("%s t=%v pair %d: %+v vs %+v", label, ra.Threshold, i, ra.Pairs[i], rb.Pairs[i])
			}
		}
		if ra.Candidates != rb.Candidates || ra.Pruned != rb.Pruned ||
			ra.CacheHits != rb.CacheHits || ra.HashesCompared != rb.HashesCompared {
			t.Fatalf("%s t=%v: counters differ: cand %d/%d pruned %d/%d hits %d/%d hashes %d/%d",
				label, ra.Threshold, ra.Candidates, rb.Candidates, ra.Pruned, rb.Pruned,
				ra.CacheHits, rb.CacheHits, ra.HashesCompared, rb.HashesCompared)
		}
	}
}

// TestSessionSnapshotRestartDeterminism is the restart-determinism property:
// probe -> snapshot -> restore -> probe must be byte-identical to the same
// probe sequence in one uninterrupted session, for every registry kind, for
// any worker count, and whether the dataset is re-supplied or taken from the
// stream. A session's snapshot is its cache's stream, and a session
// restored from it re-snapshots to the same bytes. The probe history comes back as it was saved: the count includes
// repeats, the thresholds are sorted and distinct, and the processing time
// is the sum over the probes.
func TestSessionSnapshotRestartDeterminism(t *testing.T) {
	forceParallel(t)
	firstHalf := []float64{0.8, 0.7, 0.8}
	secondHalf := []float64{0.9, 0.6, 0.7}

	for _, spec := range []dataset.Spec{
		{Kind: "toy", Seed: 1},
		{Kind: "table", Name: "wine", Seed: 1},
		{Kind: "corpus", Name: "twitter", Rows: 120, Seed: 1},
		{Kind: "graph", Name: "pa", Rows: 200, Seed: 1},
	} {
		for _, workers := range []int{1, 3, 8} {
			label := spec.Kind + "/" + spec.Name + " workers=" + strconv.Itoa(workers)
			params := bayeslsh.DefaultParams()
			params.Workers = workers
			load := func() *vec.Dataset {
				ds, err := dataset.Load(spec)
				if err != nil {
					t.Fatal(err)
				}
				return ds
			}

			// Uninterrupted reference run.
			ref := NewSession(load(), params, 42)
			probeSeq(t, ref, firstHalf)
			want := probeSeq(t, ref, secondHalf)

			// Interrupted run: same prefix, then snapshot/restore mid-session.
			s := NewSession(load(), params, 42)
			var total time.Duration
			for _, res := range probeSeq(t, s, firstHalf) {
				total += res.ProcessTime
			}
			if s.ProbeCount() != len(firstHalf) || !slices.Equal(s.Thresholds(), []float64{0.7, 0.8}) || s.ProcessTime() != total {
				t.Fatalf("%s history: %d probes at %v taking %v, want %d at [0.7 0.8] taking %v", label,
					s.ProbeCount(), s.Thresholds(), s.ProcessTime(), len(firstHalf), total)
			}
			if s.CachedPairs() == 0 {
				t.Fatalf("%s: the first probes cached no evidence", label)
			}
			var buf, cacheBuf bytes.Buffer
			if err := s.Snapshot(&buf); err != nil {
				t.Fatal(err)
			}
			if err := s.Cache.EncodeSnapshot(&cacheBuf); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf.Bytes(), cacheBuf.Bytes()) {
				t.Fatalf("%s: the session snapshot is %d bytes, its cache's stream %d", label, buf.Len(), cacheBuf.Len())
			}

			for _, mode := range []string{"explicit dataset", "from stream"} {
				var ds2 *vec.Dataset
				if mode == "explicit dataset" {
					ds2 = load()
				}
				restored, err := RestoreSession(bytes.NewReader(buf.Bytes()), ds2)
				if err != nil {
					t.Fatalf("%s %s: %v", label, mode, err)
				}
				if restored.ProbeCount() != s.ProbeCount() || !slices.Equal(restored.Thresholds(), s.Thresholds()) ||
					restored.ProcessTime() != s.ProcessTime() {
					t.Fatalf("%s restored history: %d probes at %v taking %v, want %d at %v taking %v", label,
						restored.ProbeCount(), restored.Thresholds(), restored.ProcessTime(),
						s.ProbeCount(), s.Thresholds(), s.ProcessTime())
				}
				if restored.CachedPairs() != s.CachedPairs() {
					t.Fatalf("%s restored %d cached pairs, want %d", label, restored.CachedPairs(), s.CachedPairs())
				}
				var again bytes.Buffer
				if err := restored.Snapshot(&again); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(again.Bytes(), buf.Bytes()) {
					t.Fatalf("%s %s: re-snapshot is %d bytes, not the %d it was restored from", label, mode, again.Len(), buf.Len())
				}
				got := probeSeq(t, restored, secondHalf)
				equalResults(t, label+" "+mode, want, got)
			}
		}
	}
}

// TestProbeHistoryDoesNotGrowSnapshot: a session keeps its evidence, not its
// answers. Once a ladder has been probed, probing it again adds nothing to
// the knowledge cache, and the snapshot must not grow either — no probe's
// pair list is stored.
func TestProbeHistoryDoesNotGrowSnapshot(t *testing.T) {
	s, _ := wineSession(t)
	ladder := []float64{0.9, 0.8, 0.7, 0.6, 0.5}
	snapLen := func() int {
		var buf bytes.Buffer
		if err := s.Snapshot(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Len()
	}
	probeSeq(t, s, ladder)
	before := snapLen()
	for range 20 {
		probeSeq(t, s, ladder)
	}
	if after := snapLen(); after != before {
		t.Fatalf("snapshot grew from %d to %d bytes over 100 repeat probes", before, after)
	}
	if s.ProbeCount() != 21*len(ladder) || len(s.Thresholds()) != len(ladder) {
		t.Fatalf("history: %d probes at %v", s.ProbeCount(), s.Thresholds())
	}
}

// TestProbeHistoryWalkChecks: a stream whose probe history breaks the
// walk's checks is refused with bayeslsh.ErrSnapshotCorrupt, and a
// well-formed history comes back as it was written. (The same checks refuse
// a history on encode; that direction is bayeslsh's own test, since no
// probe sequence gives a session such a history.)
func TestProbeHistoryWalkChecks(t *testing.T) {
	s := uploadedJaccard()
	probeSeq(t, s, []float64{0.8})
	snap := snapshotOf(t, s)
	// The history follows the dataset and the append epoch; the session's
	// own is one probe at one threshold.
	at := snapHeadLen + len(datasetBytes(s.Dataset())) + 4
	end := at + 8 + 4 + 8 + 8
	// forge is snap with the probe history write puts on the wire.
	forge := func(write func(c *wire.Codec)) []byte {
		var h bytes.Buffer
		write(wire.NewEncoder(&h, wire.Errors{}))
		return resealed(slices.Concat(snap[:at], h.Bytes(), snap[end:len(snap)-4]))
	}
	history := func(count int64, total time.Duration, thresholds ...float64) func(c *wire.Codec) {
		return func(c *wire.Codec) {
			c.I64(count)
			c.U32(uint32(len(thresholds)))
			for _, th := range thresholds {
				c.F64(th)
			}
			c.I64(int64(total))
		}
	}
	if own := forge(history(1, s.ProcessTime(), 0.8)); !bytes.Equal(own, snap) {
		t.Fatal("test setup: the history is not where the layout puts it")
	}

	restored, err := RestoreSession(bytes.NewReader(forge(history(3, 5, 0.7, 0.8))), nil)
	if err != nil {
		t.Fatalf("well-formed history refused: %v", err)
	}
	if restored.ProbeCount() != 3 || !slices.Equal(restored.Thresholds(), []float64{0.7, 0.8}) || restored.ProcessTime() != 5 {
		t.Fatalf("restored history: %d probes at %v taking %v", restored.ProbeCount(), restored.Thresholds(), restored.ProcessTime())
	}
	for name, write := range map[string]func(c *wire.Codec){
		"descending":                  history(2, 0, 0.8, 0.7),
		"repeated":                    history(2, 0, 0.8, 0.8),
		"NaN":                         history(1, 0, math.NaN()),
		"more thresholds than probes": history(1, 0, 0.7, 0.8),
		"negative probe count":        history(-1, 0),
	} {
		if _, err := RestoreSession(bytes.NewReader(forge(write)), nil); !errors.Is(err, bayeslsh.ErrSnapshotCorrupt) {
			t.Errorf("decode %s: err = %v, want ErrSnapshotCorrupt", name, err)
		}
	}
}

// TestSessionSnapshotEmbedsUploadedData: a snapshot embeds the dataset
// itself, so the snapshot alone rebuilds the session.
func TestSessionSnapshotEmbedsUploadedData(t *testing.T) {
	ds := vec.FromDenseMatrix("uploaded", [][]float64{
		{1, 0, 2, 0}, {0.9, 0.1, 2.1, 0}, {0, 3, 0, 1}, {0.1, 2.9, 0, 1.2}, {1, 1, 1, 1},
	}, vec.CosineSim)
	ds.NormalizeRows()
	s := NewSession(ds, bayeslsh.DefaultParams(), 9)
	probeSeq(t, s, []float64{0.8})
	want := s.CumulativeAPSS([]float64{0.5, 0.9})

	var buf bytes.Buffer
	if err := s.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := RestoreSession(bytes.NewReader(buf.Bytes()), nil)
	if err != nil {
		t.Fatal(err)
	}
	rds := restored.Dataset()
	if rds.Name != "uploaded" || rds.N() != ds.N() || rds.Dim != ds.Dim {
		t.Fatalf("restored dataset %s %dx%d", rds.Name, rds.N(), rds.Dim)
	}
	for i, row := range rds.Rows {
		for k := range row.Values {
			if row.Values[k] != ds.Rows[i].Values[k] || row.Indices[k] != ds.Rows[i].Indices[k] {
				t.Fatalf("row %d entry %d differs after restore", i, k)
			}
		}
	}
	got := restored.CumulativeAPSS([]float64{0.5, 0.9})
	for k := range want {
		if want[k] != got[k] {
			t.Fatalf("curve point %d: %+v vs %+v", k, want[k], got[k])
		}
	}
}

// TestJaccardSnapshotCarriesNoValues: a Jaccard row is its index set in the
// stream. A grown, probed Jaccard session saves the same bytes whether its
// rows carry all-ones values or none; restored, its rows have nil values,
// it re-snapshots to the same bytes, and its next probe equals the
// uninterrupted session's for any worker count. A caller's dataset that
// still carries ones is the same rows; one with a different index is not.
func TestJaccardSnapshotCarriesNoValues(t *testing.T) {
	forceParallel(t)
	bare, err := dataset.Load(dataset.Spec{Kind: "corpus", Name: "orkut", Rows: 160, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if bare.Measure != vec.JaccardSim || bare.Rows[0].Values != nil {
		t.Fatalf("test setup: want Jaccard rows without values, got %v %+v", bare.Measure, bare.Rows[0])
	}
	ones := &vec.Dataset{Name: bare.Name, Dim: bare.Dim, Measure: bare.Measure}
	for _, row := range bare.Rows {
		values := make([]float64, len(row.Indices))
		for k := range values {
			values[k] = 1
		}
		ones.Rows = append(ones.Rows, vec.Sparse{Indices: row.Indices, Values: values})
	}
	grow := func(ds *vec.Dataset) (*Session, []byte) {
		head := *ds
		head.Rows = ds.Rows[:120]
		s := NewSession(&head, bayeslsh.DefaultParams(), 5)
		probeSeq(t, s, []float64{0.7})
		if _, err := s.AppendRows(ds.Rows[120:]); err != nil {
			t.Fatal(err)
		}
		probeSeq(t, s, []float64{0.5})
		// Wall-clock times differ between any two runs.
		return s, normalizedSnapshot(t, s)
	}
	ref, snap := grow(bare)
	if _, withOnes := grow(ones); !bytes.Equal(withOnes, snap) {
		t.Fatalf("rows with ones save %d bytes, rows without values %d", len(withOnes), len(snap))
	}
	want := probeSeq(t, ref, []float64{0.4})

	for _, workers := range []int{1, 4} {
		restored, err := RestoreSession(bytes.NewReader(snap), nil)
		if err != nil {
			t.Fatal(err)
		}
		for i, row := range restored.Dataset().Rows {
			if row.Values != nil || !slices.Equal(row.Indices, bare.Rows[i].Indices) {
				t.Fatalf("restored row %d: %+v, want the indices of %+v and no values", i, row, bare.Rows[i])
			}
		}
		var again bytes.Buffer
		if err := restored.Snapshot(&again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again.Bytes(), snap) {
			t.Fatalf("re-snapshot is %d bytes, not the %d it was restored from", again.Len(), len(snap))
		}
		got, err := restored.ProbeWorkers(0.4, workers)
		if err != nil {
			t.Fatal(err)
		}
		equalResults(t, "restored workers="+strconv.Itoa(workers), want, []*bayeslsh.Result{got})
	}

	if _, err := RestoreSession(bytes.NewReader(snap), ones); err != nil {
		t.Fatalf("restore against the same rows carrying ones: %v", err)
	}
	edited := *ones
	edited.Rows = slices.Clone(ones.Rows)
	last := edited.Rows[len(edited.Rows)-1]
	indices := slices.Clone(last.Indices)
	indices[len(indices)-1]++
	if int(indices[len(indices)-1]) >= edited.Dim {
		t.Fatal("test setup: want room to move the last index up")
	}
	edited.Rows[len(edited.Rows)-1] = vec.Sparse{Indices: indices, Values: last.Values}
	_, err = RestoreSession(bytes.NewReader(snap), &edited)
	var mismatch *SnapshotMismatchError
	if !errors.As(err, &mismatch) || mismatch.Field != "content" {
		t.Fatalf("restore against a moved index: err = %v, want content SnapshotMismatchError", err)
	}
}

// uploadedJaccard is a small Jaccard session over uploaded rows.
func uploadedJaccard() *Session {
	ds := vec.FromDenseMatrix("uploaded", [][]float64{
		{1, 0, 1, 0, 1, 1}, {1, 0, 1, 0, 1, 0}, {0, 1, 0, 1, 0, 0}, {0, 1, 0, 1, 1, 0}, {1, 1, 1, 1, 1, 1},
	}, vec.JaccardSim)
	return NewSession(ds, bayeslsh.DefaultParams(), 9)
}

// TestSnapshotConcurrentWithReaders: Snapshot promises to be safe while
// probes are in flight, and probes and the server's session-info reads share
// the live dataset without a lock — so encoding an embedded dataset must not
// write through it. Under -race this is the check.
func TestSnapshotConcurrentWithReaders(t *testing.T) {
	forceParallel(t)
	s := uploadedJaccard()
	var wg sync.WaitGroup
	for _, th := range []float64{0.8, 0.6, 0.4} {
		wg.Add(3)
		go func() {
			defer wg.Done()
			if _, err := s.Probe(th); err != nil {
				t.Error(err)
			}
		}()
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if ds := s.Dataset(); ds.Name != "uploaded" || ds.Dim != 6 || ds.Measure != vec.JaccardSim || ds.N() != 5 {
					t.Errorf("live dataset changed under a snapshot: %s %dx%d %v", ds.Name, ds.N(), ds.Dim, ds.Measure)
					return
				}
			}
		}()
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if err := s.Snapshot(io.Discard); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestFailedSnapshotLeavesDatasetAlone: a session whose dataset cannot be
// encoded fails the save with the typed error and keeps probing the dataset
// it had — the walk's checks must not rewrite live fields on the way out.
func TestFailedSnapshotLeavesDatasetAlone(t *testing.T) {
	for name, damage := range map[string]func(*vec.Dataset){
		"name over the string cap":     func(ds *vec.Dataset) { ds.Name = strings.Repeat("x", 1<<16+1) },
		"dimension over the count cap": func(ds *vec.Dataset) { ds.Dim = 1<<28 + 1 },
	} {
		s := uploadedJaccard()
		damage(s.Dataset())
		before := *s.Dataset()
		if err := s.Snapshot(io.Discard); !errors.Is(err, bayeslsh.ErrSnapshotCorrupt) {
			t.Errorf("%s: Snapshot err = %v, want ErrSnapshotCorrupt", name, err)
		}
		if after := *s.Dataset(); !reflect.DeepEqual(before, after) {
			t.Errorf("%s: failed Snapshot changed the live dataset: %s dim %d %v -> %s dim %d %v", name,
				before.Name[:8], before.Dim, before.Measure, after.Name[:min(8, len(after.Name))], after.Dim, after.Measure)
		}
	}
}

// TestRestoreSessionValidation: a snapshot restored against the wrong
// dataset must fail with the typed mismatch error, and damaged streams must
// fail loudly.
func TestRestoreSessionValidation(t *testing.T) {
	ds, err := dataset.Load(dataset.Spec{Kind: "table", Name: "wine", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	s := NewSession(ds, bayeslsh.DefaultParams(), 42)
	probeSeq(t, s, []float64{0.8})
	var buf bytes.Buffer
	if err := s.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	t.Run("row count mismatch", func(t *testing.T) {
		small := ds.Sample([]int{0, 1, 2, 3, 4})
		_, err := RestoreSession(bytes.NewReader(good), small)
		var mismatch *SnapshotMismatchError
		if !errors.As(err, &mismatch) || mismatch.Field != "rows" {
			t.Fatalf("err = %v, want rows SnapshotMismatchError", err)
		}
	})
	t.Run("content mismatch", func(t *testing.T) {
		// Same shape (rows, dim, measure), different vectors: the stream's
		// own rows are compared with the caller's, row by row.
		if _, err := RestoreSession(bytes.NewReader(good), ds); err != nil {
			t.Fatalf("restore against the embedded rows themselves: %v", err)
		}
		other, err := dataset.Load(dataset.Spec{Kind: "table", Name: "wine", Seed: 99})
		if err != nil {
			t.Fatal(err)
		}
		if other.N() != ds.N() || other.Dim != ds.Dim || other.Measure != ds.Measure {
			t.Fatalf("test setup: want the same shape, got %dx%d vs %dx%d", other.N(), other.Dim, ds.N(), ds.Dim)
		}
		_, err = RestoreSession(bytes.NewReader(good), other)
		var mismatch *SnapshotMismatchError
		if !errors.As(err, &mismatch) || mismatch.Field != "content" {
			t.Fatalf("err = %v, want content SnapshotMismatchError", err)
		}
	})
	t.Run("embedded content mismatch", func(t *testing.T) {
		// The caller's rows equal the embedded ones except for one value in
		// the last row: the row-by-row comparison must still refuse them.
		edited := ds.Sample(make([]int, 0))
		edited.Rows = append(edited.Rows, ds.Rows...)
		last := edited.Rows[len(edited.Rows)-1]
		if len(last.Values) == 0 {
			t.Fatal("test setup: want a non-empty last row")
		}
		values := append([]float64{}, last.Values...)
		values[0] = math.Nextafter(values[0], math.Inf(1))
		edited.Rows[len(edited.Rows)-1] = vec.Sparse{Indices: last.Indices, Values: values}
		_, err := RestoreSession(bytes.NewReader(good), edited)
		var mismatch *SnapshotMismatchError
		if !errors.As(err, &mismatch) || mismatch.Field != "content" {
			t.Fatalf("err = %v, want content SnapshotMismatchError", err)
		}
	})
	t.Run("measure mismatch", func(t *testing.T) {
		wrong := ds.Sample(make([]int, 0))
		wrong.Rows = append(wrong.Rows, ds.Rows...)
		wrong.Measure = vec.JaccardSim
		_, err := RestoreSession(bytes.NewReader(good), wrong)
		var mismatch *SnapshotMismatchError
		if !errors.As(err, &mismatch) || mismatch.Field != "measure" {
			t.Fatalf("err = %v, want measure SnapshotMismatchError", err)
		}
	})
	t.Run("bad magic", func(t *testing.T) {
		bad := append([]byte{}, good...)
		bad[0] = 'x'
		if _, err := RestoreSession(bytes.NewReader(bad), nil); !errors.Is(err, bayeslsh.ErrSnapshotMagic) {
			t.Fatalf("err = %v, want ErrSnapshotMagic", err)
		}
	})
	t.Run("bad version", func(t *testing.T) {
		bad := append([]byte{}, good...)
		bad[8], bad[9] = 0xff, 0xff
		if _, err := RestoreSession(bytes.NewReader(bad), nil); !errors.Is(err, bayeslsh.ErrSnapshotVersion) {
			t.Fatalf("err = %v, want ErrSnapshotVersion", err)
		}
	})
	t.Run("truncated", func(t *testing.T) {
		for _, cut := range []int{4, 11, len(good) / 3, len(good) - 3} {
			if _, err := RestoreSession(bytes.NewReader(good[:cut]), nil); err == nil {
				t.Fatalf("truncation at %d restored successfully", cut)
			}
		}
	})
	t.Run("flipped byte", func(t *testing.T) {
		for _, pos := range []int{20, len(good) / 2, len(good) - 2} {
			bad := append([]byte{}, good...)
			bad[pos] ^= 0x20
			if _, err := RestoreSession(bytes.NewReader(bad), nil); err == nil {
				t.Fatalf("flip at %d restored successfully", pos)
			}
		}
	})
}

// TestRestoreSessionHugeDeclaredCounts feeds RestoreSession tiny streams
// whose in-bounds count fields declare enormous payloads (dataset rows,
// probed thresholds). The decode must die on the truncation, not preallocate
// gigabytes from the declared counts — POST /v1/sessions/restore accepts
// attacker-built snapshots.
func TestRestoreSessionHugeDeclaredCounts(t *testing.T) {
	head := snapshotOf(t, uploadedJaccard())[:snapHeadLen]
	forge := func(body func(c *wire.Codec)) []byte {
		buf := bytes.NewBuffer(slices.Clone(head))
		c := wire.NewEncoder(buf, wire.Errors{})
		body(c)
		if c.Err() != nil {
			t.Fatal(c.Err())
		}
		return buf.Bytes()
	}
	t.Run("dataset rows", func(t *testing.T) {
		stream := forge(func(c *wire.Codec) {
			c.Str("evil", 1<<16)
			c.U32(1 << 20)             // dim
			c.U8(uint8(vec.CosineSim)) // measure
			c.U32(1 << 28)             // declared rows; the stream ends here
		})
		if _, err := RestoreSession(bytes.NewReader(stream), nil); !errors.Is(err, bayeslsh.ErrSnapshotCorrupt) {
			t.Fatalf("err = %v, want ErrSnapshotCorrupt", err)
		}
	})
	t.Run("probe records", func(t *testing.T) {
		stream := forge(func(c *wire.Codec) {
			c.Bytes(datasetBytes(&vec.Dataset{Dim: 1, Measure: vec.CosineSim}))
			c.U32(0)       // append epoch
			c.I64(1 << 40) // probe count
			c.U32(1 << 28) // declared threshold count; the stream ends here
		})
		if _, err := RestoreSession(bytes.NewReader(stream), nil); !errors.Is(err, bayeslsh.ErrSnapshotCorrupt) {
			t.Fatalf("err = %v, want ErrSnapshotCorrupt", err)
		}
	})
}

// snapHeadLen is where a snapshot's dataset starts: after the magic, the
// version, the params (ε, δ, γ, maxHashes, step, maxDFFrac, lite, workers)
// and the seed.
const snapHeadLen = 8 + 2 + 3*8 + 2*4 + 8 + 1 + 4 + 8

// snapshotOf returns s's snapshot.
func snapshotOf(t *testing.T, s *Session) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := s.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// datasetBytes writes ds as a snapshot lays it out, each row as its own
// counts say (values for cosine only): nothing on the way checks the rows.
func datasetBytes(ds *vec.Dataset) []byte {
	var buf bytes.Buffer
	c := wire.NewEncoder(&buf, wire.Errors{})
	c.Str(ds.Name, 1<<16)
	c.U32(uint32(ds.Dim))
	c.U8(uint8(ds.Measure))
	c.U32(uint32(len(ds.Rows)))
	for _, row := range ds.Rows {
		c.U32(uint32(len(row.Indices)))
		wire.I32s(c, row.Indices, len(row.Indices))
		if ds.Measure == vec.CosineSim {
			wire.F64s(c, row.Values, len(row.Values))
		}
	}
	return buf.Bytes()
}

// resealed returns body followed by its CRC-32C trailer, so a forged
// stream is refused for what it carries, not for its checksum.
func resealed(body []byte) []byte {
	return binary.LittleEndian.AppendUint32(body, crc32.Checksum(body, crc32.MakeTable(crc32.Castagnoli)))
}

// forgeEmbedded writes s's snapshot with ds in place of its dataset, ds
// written verbatim by datasetBytes. ds must have s's row count, so the
// signatures and runs that follow still fit it.
func forgeEmbedded(t *testing.T, ds *vec.Dataset, s *Session) []byte {
	t.Helper()
	snap := snapshotOf(t, s)
	own := len(datasetBytes(s.Dataset()))
	return resealed(slices.Concat(snap[:snapHeadLen], datasetBytes(ds), snap[snapHeadLen+own:len(snap)-4]))
}

// TestSessionStreamRefusesMalformedRows: embedded rows pass the one row
// check, under the dataset's measure, in both directions of the walk. A
// session holding a malformed row of the shared table cannot be saved, and
// a forged stream carrying one is refused, with ErrSnapshotCorrupt either
// way; the table's well-formed rows go both ways. A row's indices and
// values share one count on the wire, and a Jaccard row has no values there
// at all, so a row whose counts differ cannot be forged into a stream: the
// encoder refuses it, which is why the values-count cases are cosine
// datasets.
func TestSessionStreamRefusesMalformedRows(t *testing.T) {
	for _, m := range []vec.Measure{vec.CosineSim, vec.JaccardSim} {
		good := func() *vec.Dataset {
			return &vec.Dataset{Name: "rows", Dim: vectest.Dim, Measure: m, Rows: []vec.Sparse{vectest.Good, vectest.Good}}
		}
		base := NewSession(good(), bayeslsh.DefaultParams(), 1)
		if _, err := RestoreSession(bytes.NewReader(forgeEmbedded(t, good(), base)), nil); err != nil {
			t.Fatalf("%v: well-formed forged stream: %v", m, err)
		}
		for _, tc := range vectest.Rows {
			if tc.Measure != m {
				continue
			}
			// The row is written into a live session's dataset in place: no
			// door admits it, so only the walk's check can refuse the save.
			s := NewSession(good(), bayeslsh.DefaultParams(), 1)
			s.Dataset().Rows[1] = tc.Row
			err := s.Snapshot(io.Discard)
			if tc.Err == "" && err != nil || tc.Err != "" && !errors.Is(err, bayeslsh.ErrSnapshotCorrupt) {
				t.Errorf("%s: encode err = %v, want %q", tc.Name, err, tc.Err)
			}
			if tc.Err != "" && len(tc.Row.Values) != len(tc.Row.Indices) {
				continue
			}
			ds := good()
			ds.Rows[1] = tc.Row
			restored, err := RestoreSession(bytes.NewReader(forgeEmbedded(t, ds, base)), nil)
			switch {
			case tc.Err == "" && err != nil:
				t.Errorf("%s: decode err = %v, want the row accepted", tc.Name, err)
			case tc.Err == "" && !slices.Equal(restored.Dataset().Rows[1].Indices, tc.Row.Indices):
				t.Errorf("%s: decoded row %+v, want %+v", tc.Name, restored.Dataset().Rows[1], tc.Row)
			case tc.Err != "" && (!errors.Is(err, bayeslsh.ErrSnapshotCorrupt) || !strings.Contains(err.Error(), tc.Err)):
				t.Errorf("%s: decode err = %v, want ErrSnapshotCorrupt naming %q", tc.Name, err, tc.Err)
			}
		}
	}
}

// TestSessionStreamRefusesHugeDimension: an embedded dataset's dimension
// is capped at vec.MaxDim.
func TestSessionStreamRefusesHugeDimension(t *testing.T) {
	ds := &vec.Dataset{Name: "wide", Dim: vec.MaxDim, Measure: vec.JaccardSim, Rows: []vec.Sparse{vectest.Good, vectest.Good}}
	s := NewSession(ds, bayeslsh.DefaultParams(), 1)
	if _, err := RestoreSession(bytes.NewReader(forgeEmbedded(t, ds, s)), nil); err != nil {
		t.Fatalf("dimension at the cap: %v", err)
	}
	wide := *ds
	wide.Dim++
	_, err := RestoreSession(bytes.NewReader(forgeEmbedded(t, &wide, s)), nil)
	if !errors.Is(err, bayeslsh.ErrSnapshotCorrupt) || !strings.Contains(err.Error(), "dataset dimension") {
		t.Fatalf("dimension past the cap: err = %v, want ErrSnapshotCorrupt on the dataset dimension", err)
	}
}

// recodeSession restores a snapshot from its own bytes and snapshots the
// result again.
func recodeSession(data []byte) ([]byte, error) {
	s, err := RestoreSession(bytes.NewReader(data), nil)
	if err != nil {
		return nil, err
	}
	var out bytes.Buffer
	err = s.Snapshot(&out)
	return out.Bytes(), err
}

// TestSessionSnapshotGolden decodes the checked-in session snapshots of the
// current version — a grown, probed cosine session and a grown, probed
// Jaccard one, in the stream bayeslsh.Cache.EncodeSnapshot writes — and
// re-encodes them byte for byte: the guard against layout drift without a
// version bump. Older goldens stay as streams that must be refused.
func TestSessionSnapshotGolden(t *testing.T) {
	wiretest.Golden(t, wiretest.Format{
		Name:         "session",
		Version:      int(bayeslsh.SnapshotVersion),
		VersionConst: "bayeslsh.SnapshotVersion",
		Sums: map[string]string{
			"session-v2-embedded.snap": "258ed3c26d4d11c500b87021a3be390ea6c776544b805d3bf4f851b565a571df",
			"session-v2-spec.snap":     "7d9899e803b237bc0c2bcb0b5ddeba76d79952d045b93bc62676ed61f78cc690",
			"session-v3-embedded.snap": "07b21a3c7329348a9980a283421ebb34f291613412ff9e71085c7c72caa145a3",
			"session-v3-spec.snap":     "11af575dd21a0fd9e64b3de31dc96ad477987954bfc0bb081917fc8257adbde7",
			"session-v4-embedded.snap": "ffaf14c43b1554fe6bd257cde4060c265129dcfda8008c358fd26b55355a9ee3",
			"session-v4-spec.snap":     "ca5861fd643997a8539c52dade5f134083e478360ba144114009a1cfb29f39f1",
			"session-v5-embedded.snap": "fcf5630192db0fdbe4e177e7e7e7361c7bc00737b9c2eaa407a855aad511bc49",
			"session-v5-spec.snap":     "eccc3953677cc86624048db4fe31512b03b5dba6addf7aef779a42ac553e3efe",
			"session-v6-embedded.snap": "3e128d9db3c4033f903c4c23799bbb0af5cad9c98fcc5ce2f3e5b9e90037b87c",
			"session-v7-embedded.snap": "66030eb72f7478d4d4cea454c2b326302ef5b7e326fdeea0dcd1ea37037374e0",
			"session-v7-jaccard.snap":  "9ad8532aa9ae65d95db704e0bf437b38ace4f0858ccdfbab9f92960555d9946d",
			"session-v8-embedded.snap": "bb211edceaec916a308e90ff55a18abfbb5c62d7b63d9da8be351679efbb5ae9",
			"session-v8-jaccard.snap":  "8ba8b45f0e6bb363d734d54985ac763a9df90aa67603aa5306fdd05b2e634ac8",
		},
		Recode:     recodeSession,
		ErrVersion: bayeslsh.ErrSnapshotVersion,
	})
	// There is no decode path for v2 to v7 streams: they are refused as a
	// version, never half-read. That includes every spec-backed stream, the
	// v6 stream that carried a Jaccard session's values and every stream
	// that nested a cache stream inside it.
	for _, glob := range []string{"session-v2-*", "session-v3-*", "session-v4-*", "session-v5-*", "session-v6-*", "session-v7-*"} {
		for name, data := range wiretest.Files(t, glob) {
			if s, err := RestoreSession(bytes.NewReader(data), nil); !errors.Is(err, bayeslsh.ErrSnapshotVersion) || s != nil {
				t.Errorf("%s: err = %v (session %v), want ErrSnapshotVersion and no session", name, err, s != nil)
			}
		}
	}
	for name, measure := range map[string]vec.Measure{
		"session-v8-embedded.snap": vec.CosineSim,
		"session-v8-jaccard.snap":  vec.JaccardSim,
	} {
		s, err := RestoreSession(bytes.NewReader(wiretest.Files(t, name)[name]), nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if s.AppendEpoch() == 0 || s.CachedPairs() == 0 || s.ProbeCount() == 0 {
			t.Errorf("%s: epoch %d, %d pairs, %d probes — want a grown probed session",
				name, s.AppendEpoch(), s.CachedPairs(), s.ProbeCount())
		}
		ds := s.Dataset()
		if ds.Measure != measure {
			t.Errorf("%s: measure %v, want %v", name, ds.Measure, measure)
		}
		for i, row := range ds.Rows {
			if hasValues := row.Values != nil; hasValues != (measure == vec.CosineSim) {
				t.Errorf("%s: row %d decoded with values %v", name, i, row.Values)
			}
		}
	}
}

// TestScheduleBombSeedsReachValidate reads the checked-in schedule-bomb fuzz
// seeds — one for each entry point of the one snapshot decoder — and
// requires the refusal they exist for: Params.Validate naming the schedule. A format
// version bump that left them behind would turn both into header-only
// version rejects, and the fuzz corpus would stop exercising the check
// without a failure anywhere.
func TestScheduleBombSeedsReachValidate(t *testing.T) {
	for _, tc := range []struct {
		path    string
		restore func(r io.Reader) error
	}{
		{"../bayeslsh/testdata/fuzz/FuzzDecodeSnapshot/schedule-bomb",
			func(r io.Reader) error { _, err := bayeslsh.DecodeSnapshot(r); return err }},
		{"testdata/fuzz/FuzzRestoreSession/schedule-bomb",
			func(r io.Reader) error { _, err := RestoreSession(r, nil); return err }},
	} {
		raw, err := os.ReadFile(tc.path)
		if err != nil {
			t.Fatal(err)
		}
		// A seed file is the corpus header line, then []byte("…") in Go syntax.
		header, value, _ := strings.Cut(strings.TrimSpace(string(raw)), "\n")
		lit, ok := strings.CutPrefix(value, "[]byte(")
		lit, ok2 := strings.CutSuffix(lit, ")")
		data, err := strconv.Unquote(lit)
		if header != "go test fuzz v1" || !ok || !ok2 || err != nil {
			t.Fatalf("%s is not a one-value fuzz seed: %v", tc.path, err)
		}
		err = tc.restore(strings.NewReader(data))
		if !errors.Is(err, bayeslsh.ErrSnapshotCorrupt) || !strings.Contains(err.Error(), "schedule") {
			t.Errorf("%s: err = %v, want ErrSnapshotCorrupt from Params.Validate naming the schedule", tc.path, err)
		}
	}
}

// FuzzRestoreSession feeds arbitrary bytes to the snapshot decoder through
// RestoreSession, the trust boundary of POST /v1/sessions/restore. It must never panic, and
// any stream it accepts must re-encode canonically: snapshot(restore(x)) is
// a fixed point.
func FuzzRestoreSession(f *testing.F) {
	for _, data := range wiretest.Files(f, "session-v*") {
		f.Add(data)
		f.Add(data[:len(data)/2])
	}
	f.Add([]byte("PLHDSESS"))
	f.Fuzz(func(t *testing.T, data []byte) {
		out, err := recodeSession(data)
		if err != nil {
			return
		}
		out2, err := recodeSession(out)
		if err != nil {
			t.Fatalf("re-restore of canonical encoding: %v", err)
		}
		if !bytes.Equal(out, out2) {
			t.Fatalf("encoding is not a fixed point: %d vs %d bytes", len(out), len(out2))
		}
	})
}
