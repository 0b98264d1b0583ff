// Package wire is the one binary codec every persisted format in this repo
// is written in: little-endian fixed-width integers and floats, length-
// prefixed strings and blobs, bounded element counts, and a CRC-32C
// trailer. A Codec runs in one direction — encoding to an io.Writer or
// decoding from an io.Reader — but exposes the same calls either way: each
// takes the value to write and returns the value on the wire, so a format
// is one walk function that serves as both its encoder and its decoder.
// Range and structure checks written in a walk therefore run on encode as
// well as decode, and the two halves cannot drift apart.
//
// The first failure latches: later calls do nothing and return zero values,
// so walks stay straight-line and check Err once at the end.
//
// Scalars write through and read exactly their own bytes, one call each.
// Arrays of fixed-width elements — signatures, row indices and values, pair
// records — move as blocks instead: Fixed packs up to PreallocCap elements
// into the codec's scratch and issues one Write for them, or does one
// ReadFull of their bytes and unpacks them, with one CRC update a chunk.
// The format's pack and unpack callbacks take the whole chunk, so the
// per-element loop is theirs and inlines: a chunk costs one indirect call,
// not one per word. The bytes on the wire are the same either way; only
// the number of calls that carry them changes. A block read takes no more than the chunk it
// asks for, so a decoder still consumes exactly the bytes it decodes, and
// nothing is allocated for a chunk's elements until its bytes have arrived.
package wire

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"slices"
)

// PreallocCap bounds any slice capacity taken from a decoded count before
// the elements behind it have been read. Counts are untrusted (snapshots
// arrive over the wire), so Slice grows its result by append as bytes
// actually arrive: a fabricated count in a tiny stream can never allocate
// more than the stream backs. It is also Fixed's chunk length.
const PreallocCap = 1 << 12

// maxWidth bounds the element width Fixed walks, so a chunk's scratch is at
// most PreallocCap·maxWidth bytes whatever a stream declares.
const maxWidth = 32

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Errors are the sentinels a format's failures wrap, so each format keeps
// its own typed errors. Corrupt covers truncation and every Fail; Magic and
// Version are used by Header, Checksum by Finish.
type Errors struct {
	Magic, Version, Checksum, Corrupt error
}

// Codec walks one stream in one direction. It is also an io.Writer (when
// encoding) or io.Reader (when decoding) over the same stream and checksum,
// which is how its fixed-width fields move.
type Codec struct {
	w    io.Writer // set when encoding
	r    io.Reader // set when decoding
	errs Errors
	crc  uint32
	err  error
	buf  [8]byte
	// scratch holds one chunk of Fixed elements on their way to or from
	// the stream; it only grows, up to PreallocCap·maxWidth bytes.
	scratch []byte
}

// NewEncoder returns a Codec that writes to w.
func NewEncoder(w io.Writer, errs Errors) *Codec { return &Codec{w: w, errs: errs} }

// NewDecoder returns a Codec that reads from r. It consumes exactly the
// bytes it decodes, never more.
func NewDecoder(r io.Reader, errs Errors) *Codec { return &Codec{r: r, errs: errs} }

// Err returns the first failure, or nil.
func (c *Codec) Err() error { return c.err }

// Fail latches a structural violation wrapping Errors.Corrupt.
func (c *Codec) Fail(format string, args ...any) {
	if c.err == nil {
		c.err = fmt.Errorf("%w: %s", c.errs.Corrupt, fmt.Sprintf(format, args...))
	}
}

// Write passes b through to the stream and the checksum.
func (c *Codec) Write(b []byte) (int, error) {
	if c.err != nil {
		return 0, c.err
	}
	n, err := c.w.Write(b)
	c.crc = crc32.Update(c.crc, castagnoli, b[:n])
	if err != nil {
		c.err = err
	}
	return n, err
}

// Read passes stream bytes through the checksum into b.
func (c *Codec) Read(b []byte) (int, error) {
	if c.err != nil {
		return 0, c.err
	}
	n, err := c.r.Read(b)
	c.crc = crc32.Update(c.crc, castagnoli, b[:n])
	return n, err
}

// Bytes walks a fixed-width field in place: b is written, or overwritten
// with what the stream holds.
func (c *Codec) Bytes(b []byte) {
	if c.err != nil {
		return
	}
	if c.w != nil {
		_, _ = c.Write(b) // Write latches its own error
		return
	}
	if _, err := io.ReadFull(c, b); err != nil {
		c.err = fmt.Errorf("%w: truncated stream: %v", c.errs.Corrupt, err)
	}
}

// word walks the low n bytes of v, little-endian.
func (c *Codec) word(v uint64, n int) uint64 {
	if c.w == nil {
		c.buf = [8]byte{}
	} else {
		binary.LittleEndian.PutUint64(c.buf[:], v)
	}
	c.Bytes(c.buf[:n])
	if c.err != nil {
		return 0
	}
	return binary.LittleEndian.Uint64(c.buf[:])
}

func (c *Codec) U8(v uint8) uint8      { return uint8(c.word(uint64(v), 1)) }
func (c *Codec) U16(v uint16) uint16   { return uint16(c.word(uint64(v), 2)) }
func (c *Codec) U32(v uint32) uint32   { return uint32(c.word(uint64(v), 4)) }
func (c *Codec) U64(v uint64) uint64   { return c.word(v, 8) }
func (c *Codec) I64(v int64) int64     { return int64(c.word(uint64(v), 8)) }
func (c *Codec) F32(v float32) float32 { return math.Float32frombits(c.U32(math.Float32bits(v))) }
func (c *Codec) F64(v float64) float64 { return math.Float64frombits(c.U64(math.Float64bits(v))) }

// Header walks an 8-byte magic and a u16 format version, failing with
// Errors.Magic or Errors.Version when the stream holds anything else.
func (c *Codec) Header(magic [8]byte, version uint16) {
	got := magic
	c.Bytes(got[:])
	if c.err == nil && got != magic {
		c.err = fmt.Errorf("%w: got %q", c.errs.Magic, got[:])
	}
	if v := c.U16(version); c.err == nil && v != version {
		c.err = fmt.Errorf("%w: got %d, support %d", c.errs.Version, v, version)
	}
}

// Count walks a u32 element count, failing — in either direction — when it
// lies outside [0, max].
func (c *Codec) Count(n, max int, what string) int {
	if c.w == nil {
		n = int(c.U32(0))
	}
	if n < 0 || n > max {
		c.Fail("%s %d out of range [0,%d]", what, n, max)
		return 0
	}
	if c.w != nil {
		c.U32(uint32(n))
	}
	return n
}

// Each walks n elements through elem without building anything: the
// elements of s when encoding (len(s) must equal n), n zero values for elem
// to fill from the stream when decoding. It stops at the first failure.
func Each[T any](c *Codec, s []T, n int, elem func(T)) {
	if c.w != nil && len(s) != n {
		c.Fail("%d elements where %d were declared", len(s), n)
	}
	for i := 0; i < n && c.err == nil; i++ {
		var v T
		if c.w != nil {
			v = s[i]
		}
		elem(v)
	}
}

// Slice walks the n elements of s through elem, which takes each element
// and returns the value on the wire (a Codec method such as c.U32 fits).
// Encoding, len(s) must equal n. Decoding, s is ignored and the result grows
// by append from a capacity of at most PreallocCap, whatever n claims; after
// a failure, or for a negative n, nothing is allocated.
func Slice[T any](c *Codec, s []T, n int, elem func(T) T) []T {
	if c.w != nil {
		Each(c, s, n, func(v T) { elem(v) })
		return s
	}
	if c.err != nil || n < 0 {
		return nil
	}
	s = make([]T, 0, min(n, PreallocCap))
	Each(c, nil, n, func(v T) { s = append(s, elem(v)) })
	return s
}

// Fixed walks the n elements of s as blocks of width bytes each. Chunks of
// up to PreallocCap elements move in one Write or one ReadFull and one
// checksum update, and the bytes are exactly those of walking the elements
// one by one. pack fills a chunk's bytes from its elements (len(dst) is
// width·len(src)), unpack fills a chunk's elements from its bytes (len(src)
// is width·len(dst)): one call a chunk each way, so the loop over the
// elements lives in the callback, where it can inline.
//
// Encoding, len(s) must equal n, and s is returned. Decoding, the elements
// are appended to s[:0], so a caller may lend a buffer to reuse; a nil s
// gets a slice of capacity at most PreallocCap, made only once the first
// chunk's bytes have arrived, and it grows by one chunk at a time after
// that. Each chunk's elements are unpacked only after all its bytes have
// arrived, so a fabricated count in a tiny stream costs one chunk of
// scratch and no elements. After a failure, or for a negative n, nothing is
// allocated. A width outside [1, maxWidth] is a programming error and
// panics.
func Fixed[T any](c *Codec, s []T, n, width int, pack func(dst []byte, src []T), unpack func(dst []T, src []byte)) []T {
	if width < 1 || width > maxWidth {
		panic(fmt.Sprintf("wire: Fixed element width %d outside [1,%d]", width, maxWidth))
	}
	if c.w != nil {
		if len(s) != n {
			c.Fail("%d elements where %d were declared", len(s), n)
		}
		for done := 0; done < n && c.err == nil; {
			k := min(n-done, PreallocCap)
			b := c.chunk(k * width)
			pack(b, s[done:done+k])
			_, _ = c.Write(b) // Write latches its own error
			done += k
		}
		return s
	}
	if c.err != nil || n < 0 {
		return nil
	}
	out := s[:0]
	for done := 0; done < n; done += PreallocCap {
		k := min(n-done, PreallocCap)
		b := c.chunk(k * width)
		if _, err := io.ReadFull(c.r, b); err != nil {
			c.err = fmt.Errorf("%w: truncated stream: %v", c.errs.Corrupt, err)
			return out
		}
		c.crc = crc32.Update(c.crc, castagnoli, b)
		if out == nil {
			out = make([]T, 0, min(n, PreallocCap))
		}
		m := len(out)
		out = slices.Grow(out, k)[:m+k]
		unpack(out[m:], b)
	}
	if out == nil {
		out = []T{}
	}
	return out
}

// chunk returns the codec's scratch resized to nbytes, which Fixed keeps at
// most PreallocCap·maxWidth.
func (c *Codec) chunk(nbytes int) []byte {
	if cap(c.scratch) < nbytes {
		c.scratch = make([]byte, min(max(nbytes, 2*cap(c.scratch)), PreallocCap*maxWidth))
	}
	return c.scratch[:nbytes]
}

// U32s, U64s, I32s and F64s walk arrays of little-endian words with Fixed.
func U32s(c *Codec, s []uint32, n int) []uint32 {
	return Fixed(c, s, n, 4,
		func(dst []byte, src []uint32) {
			for i, v := range src {
				binary.LittleEndian.PutUint32(dst[4*i:], v)
			}
		},
		func(dst []uint32, src []byte) {
			for i := range dst {
				dst[i] = binary.LittleEndian.Uint32(src[4*i:])
			}
		})
}

func U64s(c *Codec, s []uint64, n int) []uint64 {
	return Fixed(c, s, n, 8,
		func(dst []byte, src []uint64) {
			for i, v := range src {
				binary.LittleEndian.PutUint64(dst[8*i:], v)
			}
		},
		func(dst []uint64, src []byte) {
			for i := range dst {
				dst[i] = binary.LittleEndian.Uint64(src[8*i:])
			}
		})
}

func I32s(c *Codec, s []int32, n int) []int32 {
	return Fixed(c, s, n, 4,
		func(dst []byte, src []int32) {
			for i, v := range src {
				binary.LittleEndian.PutUint32(dst[4*i:], uint32(v))
			}
		},
		func(dst []int32, src []byte) {
			for i := range dst {
				dst[i] = int32(binary.LittleEndian.Uint32(src[4*i:]))
			}
		})
}

func F64s(c *Codec, s []float64, n int) []float64 {
	return Fixed(c, s, n, 8,
		func(dst []byte, src []float64) {
			for i, v := range src {
				binary.LittleEndian.PutUint64(dst[8*i:], math.Float64bits(v))
			}
		},
		func(dst []float64, src []byte) {
			for i := range dst {
				dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(src[8*i:]))
			}
		})
}

// copyBytes is Fixed's pack and unpack for raw bytes.
func copyBytes(dst, src []byte) { copy(dst, src) }

// bytesN walks n raw bytes: one write when encoding, a Fixed block read when
// decoding so that the length prefix never sizes an allocation directly.
func (c *Codec) bytesN(b []byte, n int) []byte {
	if c.w != nil {
		c.Bytes(b)
		return b
	}
	return Fixed(c, nil, n, 1, copyBytes, copyBytes)
}

// Blob walks a u32-length-prefixed byte string of at most max bytes.
func (c *Codec) Blob(b []byte, max int) []byte {
	return c.bytesN(b, c.Count(len(b), max, "byte length"))
}

// Str walks a u32-length-prefixed string of at most max bytes.
func (c *Codec) Str(s string, max int) string { return string(c.Blob([]byte(s), max)) }

// Finish ends a checksummed stream with the CRC-32C (Castagnoli) of every
// byte walked so far: appended when encoding, read and compared when
// decoding. The trailer itself is outside the sum. It returns Err.
func (c *Codec) Finish() error {
	if c.err != nil {
		return c.err
	}
	sum := c.crc
	b := c.buf[:4]
	if c.w != nil {
		binary.LittleEndian.PutUint32(b, sum)
		_, c.err = c.w.Write(b)
		return c.err
	}
	if _, err := io.ReadFull(c.r, b); err != nil {
		c.err = fmt.Errorf("%w: missing checksum: %v", c.errs.Corrupt, err)
	} else if got := binary.LittleEndian.Uint32(b); got != sum {
		c.err = fmt.Errorf("%w: stored %08x computed %08x", c.errs.Checksum, got, sum)
	}
	return c.err
}
