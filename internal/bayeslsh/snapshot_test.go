package bayeslsh

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"hash/crc32"
	"io"
	"math"
	"testing"
	"time"

	"plasmahd/internal/vec"
	"plasmahd/internal/wire"
	"plasmahd/internal/wire/wiretest"
)

// snapDataset builds a small deterministic cosine dataset.
func snapDataset(n int) *vec.Dataset {
	ds := &vec.Dataset{Name: "snap", Dim: 24, Measure: vec.CosineSim}
	for i := 0; i < n; i++ {
		var row vec.Sparse
		for d := int32(0); d < 24; d++ {
			if (int(d)+i)%3 == 0 {
				row.Indices = append(row.Indices, d)
				row.Values = append(row.Values, float64(1+(i+int(d))%5))
			}
		}
		ds.Rows = append(ds.Rows, row)
	}
	ds.NormalizeRows()
	return ds
}

// snapJaccardDataset builds a small deterministic Jaccard dataset.
func snapJaccardDataset(n int) *vec.Dataset {
	ds := &vec.Dataset{Name: "snapjac", Dim: 40, Measure: vec.JaccardSim}
	for i := 0; i < n; i++ {
		var row vec.Sparse
		for d := int32(0); d < 40; d++ {
			if (int(d)*7+i*3)%5 < 2 {
				row.Indices = append(row.Indices, d)
				row.Values = append(row.Values, 1)
			}
		}
		ds.Rows = append(ds.Rows, row)
	}
	return ds
}

func probeAll(t *testing.T, ds *vec.Dataset, c *Cache, thresholds []float64, workers int) []*Result {
	t.Helper()
	out := make([]*Result, len(thresholds))
	for i, th := range thresholds {
		res, err := SearchWorkers(ds, th, c, nil, workers)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = res
	}
	return out
}

func sameResults(t *testing.T, a, b []*Result) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("result counts differ: %d vs %d", len(a), len(b))
	}
	for k := range a {
		ra, rb := a[k], b[k]
		if len(ra.Pairs) != len(rb.Pairs) {
			t.Fatalf("t=%v: %d vs %d pairs", ra.Threshold, len(ra.Pairs), len(rb.Pairs))
		}
		for i := range ra.Pairs {
			if ra.Pairs[i] != rb.Pairs[i] {
				t.Fatalf("t=%v pair %d: %+v vs %+v", ra.Threshold, i, ra.Pairs[i], rb.Pairs[i])
			}
		}
		if ra.Candidates != rb.Candidates || ra.Pruned != rb.Pruned ||
			ra.CacheHits != rb.CacheHits || ra.HashesCompared != rb.HashesCompared {
			t.Fatalf("t=%v counters differ: %+v vs %+v", ra.Threshold, ra, rb)
		}
	}
}

// TestSnapshotRoundTrip checks that a decoded cache is state-identical and
// probes byte-identically, for both sketch families and several worker
// counts — the restart-determinism property of the knowledge cache.
func TestSnapshotRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name string
		ds   *vec.Dataset
	}{
		{"cosine", snapDataset(60)},
		{"jaccard", snapJaccardDataset(60)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, workers := range []int{1, 4} {
				p := DefaultParams()
				p.Workers = workers
				c := NewCache(tc.ds, p, 7)
				probeAll(t, tc.ds, c, []float64{0.9, 0.7}, workers)

				var buf bytes.Buffer
				if err := c.EncodeSnapshot(&buf); err != nil {
					t.Fatal(err)
				}
				restored, err := DecodeSnapshot(bytes.NewReader(buf.Bytes()))
				if err != nil {
					t.Fatal(err)
				}
				if restored.Rows() != c.Rows() || restored.Dim() != c.Dim() || restored.Seed != c.Seed ||
					restored.Measure != c.Measure || restored.Params != c.Params {
					t.Fatalf("header mismatch: %+v vs %+v", restored, c)
				}
				if restored.Pairs.Len() != c.Pairs.Len() {
					t.Fatalf("pair count %d vs %d", restored.Pairs.Len(), c.Pairs.Len())
				}
				c.Pairs.Range(func(key uint64, ps PairState) bool {
					got, ok := restored.Pairs.Get(key)
					if !ok || got != ps {
						t.Fatalf("pair %d: got %+v ok=%v want %+v", key, got, ok, ps)
					}
					return true
				})
				// Continued probes must match a never-interrupted cache.
				next := []float64{0.8, 0.5, 0.7}
				want := probeAll(t, tc.ds, c, next, workers)
				got := probeAll(t, tc.ds, restored, next, workers)
				sameResults(t, want, got)
			}
		})
	}
}

// TestSnapshotDeterministicBytes pins that encoding a quiescent cache twice
// yields identical bytes (pair entries are sorted, not map-ordered).
func TestSnapshotDeterministicBytes(t *testing.T) {
	ds := snapDataset(50)
	c := NewCache(ds, DefaultParams(), 3)
	probeAll(t, ds, c, []float64{0.8}, 2)
	var a, b bytes.Buffer
	if err := c.EncodeSnapshot(&a); err != nil {
		t.Fatal(err)
	}
	if err := c.EncodeSnapshot(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("snapshot encoding is not deterministic")
	}
}

// TestSnapshotRejectsDamage feeds the decoder corrupted, truncated, and
// mislabeled streams; every one must fail with a typed error, never return
// a cache.
func TestSnapshotRejectsDamage(t *testing.T) {
	ds := snapDataset(40)
	c := NewCache(ds, DefaultParams(), 5)
	probeAll(t, ds, c, []float64{0.8}, 1)
	var buf bytes.Buffer
	if err := c.EncodeSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	t.Run("bad magic", func(t *testing.T) {
		bad := append([]byte{}, good...)
		bad[0] = 'X'
		if _, err := DecodeSnapshot(bytes.NewReader(bad)); !errors.Is(err, ErrSnapshotMagic) {
			t.Fatalf("err = %v, want ErrSnapshotMagic", err)
		}
	})
	t.Run("bad version", func(t *testing.T) {
		bad := append([]byte{}, good...)
		bad[8] = 0xff
		bad[9] = 0xff
		if _, err := DecodeSnapshot(bytes.NewReader(bad)); !errors.Is(err, ErrSnapshotVersion) {
			t.Fatalf("err = %v, want ErrSnapshotVersion", err)
		}
	})
	t.Run("truncated", func(t *testing.T) {
		for _, cut := range []int{5, 12, len(good) / 2, len(good) - 2} {
			_, err := DecodeSnapshot(bytes.NewReader(good[:cut]))
			if err == nil {
				t.Fatalf("truncation at %d decoded successfully", cut)
			}
			if !errors.Is(err, ErrSnapshotCorrupt) && !errors.Is(err, ErrSnapshotChecksum) {
				t.Fatalf("truncation at %d: err = %v, want corrupt or checksum", cut, err)
			}
		}
	})
	t.Run("flipped payload byte", func(t *testing.T) {
		// Flip one byte somewhere in the middle; either a structural check
		// or the CRC must catch it.
		for _, pos := range []int{40, len(good) / 2, len(good) - 6} {
			bad := append([]byte{}, good...)
			bad[pos] ^= 0x41
			if _, err := DecodeSnapshot(bytes.NewReader(bad)); err == nil {
				t.Fatalf("flip at %d decoded successfully", pos)
			}
		}
	})
	t.Run("flipped crc", func(t *testing.T) {
		bad := append([]byte{}, good...)
		bad[len(bad)-1] ^= 0x01
		if _, err := DecodeSnapshot(bytes.NewReader(bad)); !errors.Is(err, ErrSnapshotChecksum) {
			t.Fatalf("err = %v, want ErrSnapshotChecksum", err)
		}
	})
	t.Run("empty", func(t *testing.T) {
		if _, err := DecodeSnapshot(bytes.NewReader(nil)); !errors.Is(err, ErrSnapshotCorrupt) {
			t.Fatalf("err = %v, want ErrSnapshotCorrupt", err)
		}
	})
}

// TestSnapshotRejectsNonCanonical feeds the decoder CRC-valid streams the
// encoder can never write: a lite byte or pair flags outside what the walk
// writes, and runs whose smaller rows repeat, descend or reach their own
// row, that declare more pairs than their row has below it, or that end
// early. Each must fail with ErrSnapshotCorrupt, so every stream that
// decodes re-encodes to itself byte for byte.
func TestSnapshotRejectsNonCanonical(t *testing.T) {
	// forge writes a three-row cosine snapshot whose pair section is runs.
	forge := func(runs func(c *wire.Codec)) []byte {
		var buf bytes.Buffer
		c := wire.NewEncoder(&buf, snapErrors)
		forgeSnapshotHead(c, DefaultParams(), vec.CosineSim, 3, sketchKindSRP)
		for row := 0; row < 3; row++ {
			c.U32(4)
			for w := 0; w < 4; w++ {
				c.U64(uint64(row))
			}
		}
		runs(c)
		if err := c.Finish(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	rec := func(c *wire.Codec, j uint32, flags uint8) {
		c.U32(j)
		c.U32(20) // M
		c.U32(32) // N, on the default schedule
		c.U8(flags)
		c.F32(0)
	}
	run := func(c *wire.Codec, js ...uint32) {
		c.U32(uint32(len(js)))
		for _, j := range js {
			rec(c, j, pairFlagDone)
		}
	}
	valid := forge(func(c *wire.Codec) { run(c); run(c, 0); run(c, 0, 1) })
	dec, err := DecodeSnapshot(bytes.NewReader(valid))
	if err != nil {
		t.Fatalf("well-formed forged snapshot: %v", err)
	}
	var out bytes.Buffer
	if err := dec.EncodeSnapshot(&out); err != nil || !bytes.Equal(out.Bytes(), valid) {
		t.Fatalf("well-formed forged snapshot re-encodes to different bytes (err %v)", err)
	}

	// lite2 is the valid stream with its lite byte, after the header and the
	// ε, δ, γ, maxHashes, step and maxDFFrac fields, set to 2.
	lite2 := bytes.Clone(valid)
	lite2[10+3*8+2*4+8] = 2
	binary.LittleEndian.PutUint32(lite2[len(lite2)-4:],
		crc32.Checksum(lite2[:len(lite2)-4], crc32.MakeTable(crc32.Castagnoli)))
	for _, tc := range []struct {
		name string
		data []byte
	}{
		{"lite byte 2", lite2},
		{"unknown flag bit", forge(func(c *wire.Codec) { run(c); c.U32(1); rec(c, 0, pairFlagDone|0x04); run(c, 0, 1) })},
		{"repeated j", forge(func(c *wire.Codec) { run(c); run(c, 0); run(c, 0, 0) })},
		{"descending j", forge(func(c *wire.Codec) { run(c); run(c, 0); run(c, 1, 0) })},
		{"j not below its row", forge(func(c *wire.Codec) { run(c); run(c, 1); run(c, 0, 1) })},
		{"run longer than its row", forge(func(c *wire.Codec) { run(c); run(c, 0); run(c, 0, 1, 2) })},
		{"truncated run", forge(func(c *wire.Codec) { run(c); run(c, 0); c.U32(2); rec(c, 0, pairFlagDone) })},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if dec, err := DecodeSnapshot(bytes.NewReader(tc.data)); !errors.Is(err, ErrSnapshotCorrupt) || dec != nil {
				t.Fatalf("err = %v (cache %v), want ErrSnapshotCorrupt and no cache", err, dec != nil)
			}
		})
	}
}

// TestSnapshotRefusesBadHistory: the probe-history checks guard the encoder
// too. A cache whose history breaks them — thresholds out of order or NaN,
// more of them than probes — cannot be saved.
func TestSnapshotRefusesBadHistory(t *testing.T) {
	ds := snapDataset(8)
	for name, h := range map[string]probeHistory{
		"descending":                  {count: 2, thresholds: []float64{0.8, 0.7}},
		"NaN":                         {count: 1, thresholds: []float64{math.NaN()}},
		"more thresholds than probes": {count: 1, thresholds: []float64{0.7, 0.8}},
	} {
		c := NewCache(ds, DefaultParams(), 1)
		c.history = h
		if err := c.EncodeSnapshot(io.Discard); !errors.Is(err, ErrSnapshotCorrupt) {
			t.Errorf("%s: err = %v, want ErrSnapshotCorrupt", name, err)
		}
	}
}

// TestWalkRunFlagsEveryChunk: a run moves in chunks of wire.PreallocCap
// records, and the flag check or-s the flag bytes as each chunk is
// unpacked. In a run of PreallocCap+1 records where only the first record
// of the second chunk carries an unknown bit, the walk must still refuse
// the run, as it must when the bit sits in the first chunk; the same run
// with no such bit walks clean.
func TestWalkRunFlagsEveryChunk(t *testing.T) {
	n := wire.PreallocCap + 1
	// forge writes the run with an unknown flag bit on record bad, if any.
	forge := func(bad int) []byte {
		var buf bytes.Buffer
		c := wire.NewEncoder(&buf, snapErrors)
		c.U32(uint32(n))
		for j := range n {
			c.U32(uint32(j))
			c.U32(20) // M
			c.U32(32) // N, on the default schedule
			c.U8(pairFlagDone | flagBit(j == bad, 0x04))
			c.F32(0)
		}
		return buf.Bytes()
	}
	im := cacheImage{params: DefaultParams()}
	for _, tc := range []struct {
		bad  int
		want error
	}{
		{-1, nil},
		{wire.PreallocCap, ErrSnapshotCorrupt},
		{0, ErrSnapshotCorrupt},
	} {
		c := wire.NewDecoder(bytes.NewReader(forge(tc.bad)), snapErrors)
		run := im.walkRun(c, n, nil)
		if !errors.Is(c.Err(), tc.want) || (tc.want == nil && len(run) != n) {
			t.Errorf("unknown flag bit on record %d: err = %v with %d records, want %v", tc.bad, c.Err(), len(run), tc.want)
		}
	}
}

// forgeSnapshotHead writes a well-formed snapshot header — the given
// params, measure and declared row count, each row empty, no appends and no
// probes — followed by the given sketch-kind byte, through the same wire
// primitives the real walk uses.
func forgeSnapshotHead(c *wire.Codec, p Params, measure vec.Measure, rows uint32, kind uint8) {
	forgeSnapshotHeadDim(c, p, measure, rows, 24, kind)
}

// forgeSnapshotHeadDim is forgeSnapshotHead with the given dimension.
func forgeSnapshotHeadDim(c *wire.Codec, p Params, measure vec.Measure, rows, dim uint32, kind uint8) {
	forgeDatasetHead(c, p, measure, rows, dim)
	for range rows {
		c.U32(0) // an empty row
	}
	c.U32(0) // append count
	c.I64(0) // probe count
	c.U32(0) // distinct thresholds
	c.I64(0) // processing time
	c.I64(0) // sketch time
	c.U8(kind)
}

// forgeDatasetHead writes a snapshot up to its dataset's declared row count.
func forgeDatasetHead(c *wire.Codec, p Params, measure vec.Measure, rows, dim uint32) {
	c.Header(snapMagic, SnapshotVersion)
	c.F64(p.Epsilon)
	c.F64(p.Delta)
	c.F64(p.Gamma)
	c.U32(uint32(p.MaxHashes))
	c.U32(uint32(p.Step))
	c.F64(p.MaxDFFrac)
	c.U8(0) // Lite
	c.U32(uint32(p.Workers))
	c.I64(7)     // seed
	c.Str("", 0) // dataset name
	c.U32(dim)   // dataset dimension
	c.U8(uint8(measure))
	c.U32(rows)
}

// TestSnapshotHugeDeclaredCounts feeds the decoder a tiny stream whose
// in-bounds length fields declare an enormous cache. The decode must die on
// the truncation, not preallocate gigabytes from the declared counts — the
// restore endpoint accepts attacker-built snapshots, so a ~100-byte body
// must never buy a multi-gigabyte allocation.
func TestSnapshotHugeDeclaredCounts(t *testing.T) {
	for _, measure := range []vec.Measure{vec.JaccardSim, vec.CosineSim} {
		var buf bytes.Buffer
		c := wire.NewEncoder(&buf, snapErrors)
		// Declared rows: in-bounds but absurd. The stream ends after the
		// count: none of the declared rows exist, and the signature block
		// and the runs take their count from the rows that do.
		forgeDatasetHead(c, DefaultParams(), measure, maxSnapRows, 24)
		if c.Err() != nil {
			t.Fatal(c.Err())
		}
		_, err := DecodeSnapshot(bytes.NewReader(buf.Bytes()))
		if !errors.Is(err, ErrSnapshotCorrupt) {
			t.Fatalf("%v: err = %v, want ErrSnapshotCorrupt", measure, err)
		}
	}
}

// TestSnapshotRejectsRaggedSignatures pins that a CRC-valid snapshot whose
// sketch block violates the cache invariants — signature lengths that do not
// match the schedule, or a sketch kind that contradicts the measure — is
// refused at decode. The comparison kernels index both signatures of a pair
// without bounds checks, so admitting such a cache would let a crafted
// restore upload panic later probe handlers.
func TestSnapshotRejectsRaggedSignatures(t *testing.T) {
	p := DefaultParams()
	encode := func(measure vec.Measure, kind uint8, sigLens []int) []byte {
		var buf bytes.Buffer
		c := wire.NewEncoder(&buf, snapErrors)
		forgeSnapshotHead(c, p, measure, uint32(len(sigLens)), kind)
		for _, ln := range sigLens {
			c.U32(uint32(ln))
			for k := 0; k < ln; k++ {
				if kind == sketchKindMinhash {
					c.U32(uint32(k))
				} else {
					c.U64(uint64(k))
				}
			}
		}
		for range sigLens {
			c.U32(0) // an empty run
		}
		if err := c.Finish(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	words := (p.MaxHashes + 63) / 64
	cases := []struct {
		name    string
		measure vec.Measure
		kind    uint8
		sigLens []int
	}{
		{"ragged minhash", vec.JaccardSim, sketchKindMinhash, []int{p.MaxHashes, 0}},
		{"short minhash", vec.JaccardSim, sketchKindMinhash, []int{p.MaxHashes - 1, p.MaxHashes - 1}},
		{"ragged SRP", vec.CosineSim, sketchKindSRP, []int{words, 0}},
		{"kind contradicts measure", vec.JaccardSim, sketchKindSRP, []int{words, words}},
		{"unknown kind", vec.CosineSim, 9, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := DecodeSnapshot(bytes.NewReader(encode(tc.measure, tc.kind, tc.sigLens)))
			if !errors.Is(err, ErrSnapshotCorrupt) {
				t.Fatalf("err = %v, want ErrSnapshotCorrupt", err)
			}
		})
	}
	// The same forgery with well-formed signatures decodes: the cases above
	// are refused for their sketch block, not for the forging itself.
	if _, err := DecodeSnapshot(bytes.NewReader(encode(vec.CosineSim, sketchKindSRP, []int{words, words}))); err != nil {
		t.Fatalf("well-formed forged snapshot: %v", err)
	}
}

// scheduleBombSnapshot forges the CRC-valid snapshot of an empty cache whose
// params ask for the given schedule: 113 bytes whatever they are.
func scheduleBombSnapshot(t testing.TB, maxHashes, step int) []byte {
	t.Helper()
	p := DefaultParams()
	p.MaxHashes, p.Step = maxHashes, step
	return emptySnapshot(t, p)
}

// emptySnapshot forges the CRC-valid snapshot of an empty cosine cache with
// the given params, valid or not.
func emptySnapshot(t testing.TB, p Params) []byte {
	t.Helper()
	var buf bytes.Buffer
	c := wire.NewEncoder(&buf, snapErrors)
	forgeSnapshotHead(c, p, vec.CosineSim, 0, sketchKindSRP) // no rows, so no runs
	if err := c.Finish(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSnapshotRejectsHugeDimension: a cache stream's dimension is capped
// at vec.MaxDim. The cap itself decodes, and a decoded cache makes no
// sketcher, so not even a cosine cache at the cap allocates its direction
// table until rows are appended; one past the cap is refused.
func TestSnapshotRejectsHugeDimension(t *testing.T) {
	forge := func(dim uint32) []byte {
		var buf bytes.Buffer
		c := wire.NewEncoder(&buf, snapErrors)
		forgeSnapshotHeadDim(c, DefaultParams(), vec.CosineSim, 0, dim, sketchKindSRP)
		if err := c.Finish(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	c, err := DecodeSnapshot(bytes.NewReader(forge(vec.MaxDim)))
	if err != nil {
		t.Fatalf("dimension at the cap: %v", err)
	}
	if c.Dim() != vec.MaxDim || c.sketch != nil {
		t.Fatalf("decoded cache: dim %d, sketcher built %v", c.Dim(), c.sketch != nil)
	}
	if _, err := DecodeSnapshot(bytes.NewReader(forge(vec.MaxDim + 1))); !errors.Is(err, ErrSnapshotCorrupt) {
		t.Fatalf("dimension past the cap: err = %v, want ErrSnapshotCorrupt", err)
	}
}

// TestSnapshotRejectsScheduleBomb pins that decoded params are validated
// before the concentration table is built from them: MaxHashes 8192 at
// Step 1 is a table of 3·10⁷ cells (35 s on a 2-CPU box) behind 113 bytes,
// and the old per-field ceilings admitted 5·10¹¹.
func TestSnapshotRejectsScheduleBomb(t *testing.T) {
	bomb := scheduleBombSnapshot(t, 8192, 1)
	if len(bomb) != 113 {
		t.Errorf("forged stream is %d bytes, want the 113 of an empty cache", len(bomb))
	}
	start := time.Now()
	_, err := DecodeSnapshot(bytes.NewReader(bomb))
	if !errors.Is(err, ErrSnapshotCorrupt) {
		t.Fatalf("err = %v, want ErrSnapshotCorrupt", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Errorf("rejection took %v", d)
	}
	// The same forgery within the ceiling decodes.
	if _, err := DecodeSnapshot(bytes.NewReader(scheduleBombSnapshot(t, 256, 1))); err != nil {
		t.Fatalf("in-range forged snapshot: %v", err)
	}
}

// TestSnapshotRejectsNonFiniteMaxDFFrac pins that the one float parameter
// with no range of its own still cannot carry NaN or ±Inf across the snapshot
// boundary: resolveMaxDF would convert NaN·n to an implementation-defined int.
func TestSnapshotRejectsNonFiniteMaxDFFrac(t *testing.T) {
	for _, frac := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		p := DefaultParams()
		p.MaxDFFrac = frac
		if _, err := DecodeSnapshot(bytes.NewReader(emptySnapshot(t, p))); !errors.Is(err, ErrSnapshotCorrupt) {
			t.Errorf("MaxDFFrac %v: err = %v, want ErrSnapshotCorrupt", frac, err)
		}
	}
	if _, err := DecodeSnapshot(bytes.NewReader(emptySnapshot(t, DefaultParams()))); err != nil {
		t.Fatalf("forged snapshot with default params: %v", err)
	}
}

// TestSnapshotRejectsOffScheduleEvidence pins that a pair state is only
// accepted at a hash count evalCandidate can write — a positive multiple of
// Step or MaxHashes itself — in both directions of the walk. That is what
// bounds the distinct states MassAbove tallies by the validated schedule.
func TestSnapshotRejectsOffScheduleEvidence(t *testing.T) {
	ds := snapDataset(12)
	p := DefaultParams()
	p.MaxHashes = 250 // a final schedule point that is not a multiple of Step
	for _, tc := range []struct {
		n  int32
		ok bool
	}{{32, true}, {224, true}, {250, true}, {0, false}, {33, false}, {249, false}, {256, false}} {
		c := NewCache(ds, p, 1)
		c.Pairs.Update(PairKey(0, 1), PairState{M: 0, N: tc.n})
		var buf bytes.Buffer
		err := c.EncodeSnapshot(&buf)
		if tc.ok {
			if err != nil {
				t.Errorf("N=%d: encode: %v", tc.n, err)
			} else if _, err := DecodeSnapshot(&buf); err != nil {
				t.Errorf("N=%d: decode: %v", tc.n, err)
			}
		} else if !errors.Is(err, ErrSnapshotCorrupt) {
			t.Errorf("N=%d: encode err = %v, want ErrSnapshotCorrupt", tc.n, err)
		}
	}

	// Decoding: a CRC-valid two-row stream whose one pair sits at 5 of 33.
	var buf bytes.Buffer
	c := wire.NewEncoder(&buf, snapErrors)
	forgeSnapshotHead(c, DefaultParams(), vec.CosineSim, 2, sketchKindSRP)
	for row := 0; row < 2; row++ {
		c.U32(4)
		for w := 0; w < 4; w++ {
			c.U64(0)
		}
	}
	c.U32(0)  // row 0's run is empty
	c.U32(1)  // row 1's run holds pair (0, 1)
	c.U32(0)  // j
	c.U32(5)  // M
	c.U32(33) // N
	c.U8(0)
	c.F32(0)
	if err := c.Finish(); err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeSnapshot(&buf); !errors.Is(err, ErrSnapshotCorrupt) {
		t.Fatalf("off-schedule pair decoded: err = %v, want ErrSnapshotCorrupt", err)
	}
}

// TestSnapshotGolden pins the retired cache stream: the checked-in cache
// snapshots ("PLHDKCSN", versions 2 and 3), written by the encoders of the
// commits that introduced each version, are kept unedited as streams the
// one snapshot decoder must refuse by their magic, never half-read. The
// goldens of the current format are session streams, in internal/core.
func TestSnapshotGolden(t *testing.T) {
	sums := map[string]string{
		"cache-v2-minhash.snap": "2541a52dabbe90b585b630e43c04594bc7c1ec4dae0eaf97db426b4533b77064",
		"cache-v2-srp.snap":     "4a5e280ee4335fb81c3e6c78d887600cb1f502a0fd8b8effdd4ea8d2dfae69f1",
		"cache-v3-minhash.snap": "430082af240bfe668c36cb12833df77d1dc7079857a29829cc3771c6912e8bcd",
		"cache-v3-srp.snap":     "b2b9c403712e933cd8bfdbc0eec56942187478b965273f2892522449c62862e0",
	}
	files := wiretest.Files(t, "cache-v*")
	if len(files) != len(sums) {
		t.Fatalf("%d cache goldens, want %d", len(files), len(sums))
	}
	for name, data := range files {
		if sum := sha256.Sum256(data); hex.EncodeToString(sum[:]) != sums[name] {
			t.Errorf("%s: bytes changed under an unchanged name", name)
		}
		if c, err := DecodeSnapshot(bytes.NewReader(data)); !errors.Is(err, ErrSnapshotMagic) || c != nil {
			t.Errorf("%s: err = %v (cache %v), want ErrSnapshotMagic and no cache", name, err, c != nil)
		}
	}
}
