package wire

import (
	"bytes"
	"errors"
	"io"
	"math"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
)

var (
	errMagic    = errors.New("test: magic")
	errVersion  = errors.New("test: version")
	errChecksum = errors.New("test: checksum")
	errCorrupt  = errors.New("test: corrupt")
	testErrors  = Errors{Magic: errMagic, Version: errVersion, Checksum: errChecksum, Corrupt: errCorrupt}
	testMagic   = [8]byte{'W', 'I', 'R', 'E', 'T', 'E', 'S', 'T'}
)

// record exercises every primitive; walk is its single layout description.
type record struct {
	a    uint8
	b    uint16
	c    uint32
	d    uint64
	e    int64
	f    float32
	g    float64
	raw  [3]byte
	s    string
	blob []byte
	xs   []uint32
}

func (r *record) walk(c *Codec) {
	c.Header(testMagic, 7)
	r.a = c.U8(r.a)
	r.b = c.U16(r.b)
	r.c = c.U32(r.c)
	r.d = c.U64(r.d)
	r.e = c.I64(r.e)
	r.f = c.F32(r.f)
	r.g = c.F64(r.g)
	c.Bytes(r.raw[:])
	r.s = c.Str(r.s, 64)
	r.blob = c.Blob(r.blob, 64)
	r.xs = Slice(c, r.xs, c.Count(len(r.xs), 1<<28, "xs"), c.U32)
}

func sample() record {
	return record{
		a: 0xfe, b: 0xbeef, c: 0xdeadbeef, d: 0x0123456789abcdef, e: -42,
		f: float32(math.Inf(-1)), g: math.Pi, raw: [3]byte{1, 2, 3},
		s: "héllo", blob: []byte{9, 8, 7, 0}, xs: []uint32{1, 1 << 31, 3},
	}
}

func encode(t *testing.T, r record) []byte {
	t.Helper()
	var buf bytes.Buffer
	c := NewEncoder(&buf, testErrors)
	r.walk(c)
	if err := c.Finish(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func decode(data []byte) (record, error) {
	var r record
	c := NewDecoder(bytes.NewReader(data), testErrors)
	r.walk(c)
	return r, c.Finish()
}

// TestRoundTrip pins that one walk encodes and decodes every primitive, and
// that the bytes are the documented little-endian layout.
func TestRoundTrip(t *testing.T) {
	want := sample()
	data := encode(t, want)
	got, err := decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.a != want.a || got.b != want.b || got.c != want.c || got.d != want.d || got.e != want.e ||
		got.f != want.f || got.g != want.g || got.raw != want.raw || got.s != want.s ||
		!bytes.Equal(got.blob, want.blob) || len(got.xs) != 3 || got.xs[1] != 1<<31 {
		t.Fatalf("round trip:\n got %+v\nwant %+v", got, want)
	}
	head := append(append([]byte{}, testMagic[:]...), 7, 0, 0xfe, 0xef, 0xbe, 0xef, 0xbe, 0xad, 0xde)
	if !bytes.HasPrefix(data, head) {
		t.Fatalf("layout: % x does not start with % x", data[:len(head)], head)
	}
}

// TestTruncationLatchesCorrupt cuts a valid stream at every byte offset:
// each cut must fail with the Corrupt sentinel and nothing else.
func TestTruncationLatchesCorrupt(t *testing.T) {
	data := encode(t, sample())
	for cut := 0; cut < len(data); cut++ {
		_, err := decode(data[:cut])
		if !errors.Is(err, errCorrupt) {
			t.Fatalf("cut at %d of %d: err = %v, want the Corrupt sentinel", cut, len(data), err)
		}
		for _, other := range []error{errMagic, errVersion, errChecksum} {
			if errors.Is(err, other) {
				t.Fatalf("cut at %d: err = %v also matches %v", cut, err, other)
			}
		}
	}
}

func TestTypedHeaderAndChecksumErrors(t *testing.T) {
	good := encode(t, sample())
	flip := func(pos int) []byte {
		bad := append([]byte{}, good...)
		bad[pos] ^= 0x01
		return bad
	}
	for _, tc := range []struct {
		name string
		data []byte
		want error
	}{
		{"magic", flip(0), errMagic},
		{"version", flip(8), errVersion},
		{"payload", flip(12), errChecksum},
		{"trailer", flip(len(good) - 1), errChecksum},
	} {
		if _, err := decode(tc.data); !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
	}
}

// TestLengthCapsBothDirections pins that an over-cap string or blob is
// refused by the encoder as well as the decoder: an encode can never succeed
// at producing a stream the decoder is guaranteed to refuse.
func TestLengthCapsBothDirections(t *testing.T) {
	long := strings.Repeat("x", 65)
	for name, walk := range map[string]func(c *Codec){
		"str":   func(c *Codec) { c.Str(long, 64) },
		"blob":  func(c *Codec) { c.Blob([]byte(long), 64) },
		"count": func(c *Codec) { c.Count(65, 64, "n") },
	} {
		var buf bytes.Buffer
		c := NewEncoder(&buf, testErrors)
		walk(c)
		if !errors.Is(c.Err(), errCorrupt) {
			t.Errorf("encode %s: err = %v, want the Corrupt sentinel", name, c.Err())
		}
		if buf.Len() != 0 {
			t.Errorf("encode %s: wrote %d bytes before refusing", name, buf.Len())
		}
	}
	// The decoder refuses the same lengths when a stream declares them.
	var buf bytes.Buffer
	enc := NewEncoder(&buf, testErrors)
	enc.U32(65)
	enc.Bytes([]byte(long))
	for name, walk := range map[string]func(c *Codec){
		"str":   func(c *Codec) { c.Str("", 64) },
		"blob":  func(c *Codec) { c.Blob(nil, 64) },
		"count": func(c *Codec) { c.Count(0, 64, "n") },
	} {
		c := NewDecoder(bytes.NewReader(buf.Bytes()), testErrors)
		walk(c)
		if !errors.Is(c.Err(), errCorrupt) {
			t.Errorf("decode %s: err = %v, want the Corrupt sentinel", name, c.Err())
		}
	}
}

// sliceWalks are the two ways to walk an array of u32, for the tests that
// hold both to the same contract.
var sliceWalks = map[string]func(c *Codec, s []uint32, n int) []uint32{
	"Slice": func(c *Codec, s []uint32, n int) []uint32 { return Slice(c, s, n, c.U32) },
	"Fixed": U32s,
}

// TestSliceRefusesLengthMismatchOnEncode: the element count on the wire and
// the slice walked after it cannot disagree, and nothing is written.
func TestSliceRefusesLengthMismatchOnEncode(t *testing.T) {
	for name, walk := range sliceWalks {
		var buf bytes.Buffer
		c := NewEncoder(&buf, testErrors)
		walk(c, []uint32{1, 2, 3}, 2)
		if !errors.Is(c.Err(), errCorrupt) || buf.Len() != 0 {
			t.Fatalf("%s: err = %v after %d bytes, want the Corrupt sentinel and none", name, c.Err(), buf.Len())
		}
	}
}

// TestSliceAllocatesNothingWhenItCannotDecode: walks keep going after a
// failed check, so Slice and Fixed are reached with counts nothing has
// vouched for — a negative one included, where int is 32 bits and the count
// was a u32.
func TestSliceAllocatesNothingWhenItCannotDecode(t *testing.T) {
	for name, walk := range sliceWalks {
		c := NewDecoder(bytes.NewReader(make([]byte, 64)), testErrors)
		if xs := walk(c, nil, -1); xs != nil || c.Err() != nil {
			t.Fatalf("%s: negative count: got %v, err %v; want nil, nil", name, xs, c.Err())
		}
		c.Fail("a check upstream")
		if xs := walk(c, nil, 1<<20); xs != nil {
			t.Fatalf("%s: after a failure: got a slice of cap %d, want nil", name, cap(xs))
		}
	}
}

// TestEachWalksWithoutBuilding: Each hands elem the elements when encoding
// and zero values to fill when decoding, and stops at the first failure.
func TestEachWalksWithoutBuilding(t *testing.T) {
	var buf bytes.Buffer
	enc := NewEncoder(&buf, testErrors)
	Each(enc, []uint32{7, 8, 9}, 3, func(v uint32) { enc.U32(v) })
	if enc.Err() != nil || buf.Len() != 12 {
		t.Fatalf("encoded %d bytes, err %v", buf.Len(), enc.Err())
	}
	Each(enc, []uint32{7}, 2, func(uint32) { t.Error("elem ran despite a length mismatch") })
	if !errors.Is(enc.Err(), errCorrupt) {
		t.Fatalf("err = %v, want the Corrupt sentinel", enc.Err())
	}

	dec := NewDecoder(bytes.NewReader(buf.Bytes()), testErrors)
	var got []uint32
	Each(dec, nil, 5, func(v uint32) { got = append(got, dec.U32(v)) })
	if want := []uint32{7, 8, 9, 0}; !reflect.DeepEqual(got, want) || !errors.Is(dec.Err(), errCorrupt) {
		t.Fatalf("decoded %v, err %v; want %v then truncation", got, dec.Err(), want)
	}
}

// TestForgedCountAllocatesOnlyTheCap is the forged-count defence, owned by Slice
// and Fixed: a 100-byte stream declaring 2^28 elements must fail on
// truncation having allocated no more than the stream backs plus the
// prealloc cap. Fixed allocates one chunk of scratch and, since no chunk's
// bytes arrive, no elements at all.
func TestForgedCountAllocatesOnlyTheCap(t *testing.T) {
	var buf bytes.Buffer
	enc := NewEncoder(&buf, testErrors)
	enc.U32(1 << 28)
	for buf.Len() < 100 {
		enc.U64(0)
	}
	stream := buf.Bytes()

	for _, tc := range []struct {
		name  string
		walk  func(c *Codec, n int) []uint64
		bound uint64 // bytes the decode may allocate
	}{
		{"Slice", func(c *Codec, n int) []uint64 { return Slice(c, nil, n, c.U64) }, 2 * 8 * PreallocCap},
		{"Fixed", func(c *Codec, n int) []uint64 { return U64s(c, nil, n) }, 8*PreallocCap + 1024},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		c := NewDecoder(bytes.NewReader(stream), testErrors)
		xs := tc.walk(c, c.Count(0, 1<<28, "xs"))
		runtime.ReadMemStats(&after)

		if !errors.Is(c.Err(), errCorrupt) {
			t.Fatalf("%s: err = %v, want the Corrupt sentinel", tc.name, c.Err())
		}
		if cap(xs) > PreallocCap {
			t.Fatalf("%s: capacity %d exceeds the prealloc cap %d", tc.name, cap(xs), PreallocCap)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > tc.bound {
			t.Fatalf("%s: decode of a %d-byte stream allocated %d bytes, bound %d", tc.name, len(stream), grew, tc.bound)
		}
	}
}

// fixedSizes are the element counts around Fixed's chunk boundaries.
var fixedSizes = []int{0, 1, PreallocCap - 1, PreallocCap, PreallocCap + 1, 3*PreallocCap + 5}

// callCounter counts the calls that reach the stream under a codec.
type callCounter struct {
	w     io.Writer
	r     io.Reader
	calls int
}

func (cc *callCounter) Write(p []byte) (int, error) { cc.calls++; return cc.w.Write(p) }
func (cc *callCounter) Read(p []byte) (int, error)  { cc.calls++; return cc.r.Read(p) }

// TestFixedMatchesSlice: at every count around a chunk boundary, for 4- and
// 8-byte words, Fixed writes the same bytes and the same checksum as the
// element-by-element Slice walk, in one stream call a chunk each way, and
// decodes what it wrote.
func TestFixedMatchesSlice(t *testing.T) {
	for _, n := range fixedSizes {
		xs := make([]uint32, n)
		ys := make([]uint64, n)
		for i := range xs {
			xs[i] = uint32(i)*2654435761 + 1
			ys[i] = uint64(xs[i])<<29 ^ uint64(i)
		}
		chunks := (n + PreallocCap - 1) / PreallocCap
		stream := func(walk func(c *Codec)) ([]byte, int) {
			var buf bytes.Buffer
			cc := &callCounter{w: &buf}
			c := NewEncoder(cc, testErrors)
			walk(c)
			calls := cc.calls
			if err := c.Finish(); err != nil {
				t.Fatalf("n=%d: %v", n, err)
			}
			return buf.Bytes(), calls
		}
		perWord, _ := stream(func(c *Codec) { Slice(c, xs, n, c.U32); Slice(c, ys, n, c.U64) })
		bulk, writes := stream(func(c *Codec) { U32s(c, xs, n); U64s(c, ys, n) })
		if !bytes.Equal(bulk, perWord) {
			t.Fatalf("n=%d: Fixed wrote %d bytes that differ from Slice's %d (checksum trailer included)", n, len(bulk), len(perWord))
		}
		if writes != 2*chunks {
			t.Errorf("n=%d: %d writes, want one per chunk (%d)", n, writes, 2*chunks)
		}

		cc := &callCounter{r: bytes.NewReader(bulk)}
		c := NewDecoder(cc, testErrors)
		gotX, gotY := U32s(c, nil, n), U64s(c, nil, n)
		reads := cc.calls
		if err := c.Finish(); err != nil {
			t.Fatalf("n=%d: decode: %v", n, err)
		}
		if !slices.Equal(gotX, xs) || !slices.Equal(gotY, ys) || gotX == nil || gotY == nil {
			t.Fatalf("n=%d: decoded %d and %d elements that differ from what was encoded", n, len(gotX), len(gotY))
		}
		if reads != 2*chunks {
			t.Errorf("n=%d: %d reads, want one per chunk (%d)", n, reads, 2*chunks)
		}
	}
}

// TestFixedTruncatedMidChunk: a stream cut inside a chunk fails with
// Corrupt, and the cut chunk contributes no elements.
func TestFixedTruncatedMidChunk(t *testing.T) {
	n := 3*PreallocCap + 5
	var buf bytes.Buffer
	enc := NewEncoder(&buf, testErrors)
	U32s(enc, make([]uint32, n), n)
	for _, cut := range []int{1, 4*PreallocCap - 2, 4*PreallocCap + 7, 4*n - 1} {
		c := NewDecoder(bytes.NewReader(buf.Bytes()[:cut]), testErrors)
		got := U32s(c, nil, n)
		if !errors.Is(c.Err(), errCorrupt) {
			t.Fatalf("cut at %d: err = %v, want the Corrupt sentinel", cut, c.Err())
		}
		if whole := cut / (4 * PreallocCap) * PreallocCap; len(got) != whole {
			t.Fatalf("cut at %d: %d elements decoded, want the %d of the whole chunks", cut, len(got), whole)
		}
	}
}

// TestFixedWidthBound: a width outside [1, maxWidth], which would let a
// chunk's scratch outgrow its bound, panics.
func TestFixedWidthBound(t *testing.T) {
	for _, width := range []int{0, maxWidth + 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("width %d did not panic", width)
				}
			}()
			c := NewEncoder(&bytes.Buffer{}, testErrors)
			Fixed(c, nil, 0, width, copyBytes, copyBytes)
		}()
	}
}

// TestNestedStreamConsumesExactlyItsBytes embeds one complete stream,
// trailer included, inside another through the io passthrough: the outer
// checksum covers the inner stream and is still read as a checksum.
func TestNestedStreamConsumesExactlyItsBytes(t *testing.T) {
	var buf bytes.Buffer
	outer := NewEncoder(&buf, testErrors)
	outer.U32(0xaaaa)
	inner := NewEncoder(outer, testErrors)
	inner.U64(0xbbbb)
	if err := inner.Finish(); err != nil {
		t.Fatal(err)
	}
	outer.U8(0xcc)
	if err := outer.Finish(); err != nil {
		t.Fatal(err)
	}
	if want := 4 + 8 + 4 + 1 + 4; buf.Len() != want {
		t.Fatalf("stream is %d bytes, want %d", buf.Len(), want)
	}

	r := bytes.NewReader(buf.Bytes())
	dout := NewDecoder(r, testErrors)
	if v := dout.U32(0); v != 0xaaaa {
		t.Fatalf("outer field = %x", v)
	}
	din := NewDecoder(dout, testErrors)
	if v := din.U64(0); v != 0xbbbb {
		t.Fatalf("inner field = %x", v)
	}
	if err := din.Finish(); err != nil {
		t.Fatalf("inner trailer: %v", err)
	}
	if v := dout.U8(0); v != 0xcc {
		t.Fatalf("field after the nested stream = %x", v)
	}
	if err := dout.Finish(); err != nil {
		t.Fatalf("outer trailer: %v", err)
	}
	if r.Len() != 0 {
		t.Fatalf("%d bytes left unread", r.Len())
	}

	// A flipped inner byte fails the inner checksum; a flipped inner
	// trailer byte is caught by both.
	bad := append([]byte{}, buf.Bytes()...)
	bad[5] ^= 1
	dout = NewDecoder(bytes.NewReader(bad), testErrors)
	dout.U32(0)
	din = NewDecoder(dout, testErrors)
	din.U64(0)
	if err := din.Finish(); !errors.Is(err, errChecksum) {
		t.Fatalf("inner err = %v, want the Checksum sentinel", err)
	}
}

// TestWriteErrorLatches: the sink's own error comes back unwrapped, once.
func TestWriteErrorLatches(t *testing.T) {
	sinkErr := errors.New("disk full")
	c := NewEncoder(failWriter{sinkErr}, testErrors)
	c.U32(1)
	c.Fail("later violation")
	if err := c.Finish(); err != sinkErr {
		t.Fatalf("err = %v, want the sink's error", err)
	}
}

type failWriter struct{ err error }

func (w failWriter) Write([]byte) (int, error) { return 0, w.err }
