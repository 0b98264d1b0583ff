package wire

import (
	"bytes"
	"testing"
)

// blockBytes is the size of the array each block benchmark walks.
const blockBytes = 1 << 20

// benchBlock encodes, then decodes, a 1 MB array of width-byte words through
// walk, reporting MB/s of array bytes. The decode lends its result back to
// the next decode, as DecodeSnapshot lends its record buffer. A walk that
// goes back to one call per element shows up here as a drop in MB/s.
func benchBlock[T any](b *testing.B, width int, walk func(c *Codec, s []T, n int) []T, elem func(i int) T) {
	xs := make([]T, blockBytes/width)
	for i := range xs {
		xs[i] = elem(i)
	}
	var buf bytes.Buffer
	walk(NewEncoder(&buf, testErrors), xs, len(xs))
	stream := buf.Bytes()

	b.Run("encode", func(b *testing.B) {
		var out bytes.Buffer
		out.Grow(blockBytes)
		b.SetBytes(blockBytes)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			out.Reset()
			walk(NewEncoder(&out, testErrors), xs, len(xs))
		}
	})
	b.Run("decode", func(b *testing.B) {
		var out []T
		b.SetBytes(blockBytes)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c := NewDecoder(bytes.NewReader(stream), testErrors)
			if out = walk(c, out, len(xs)); c.Err() != nil {
				b.Fatal(c.Err())
			}
		}
	})
}

func BenchmarkU32s(b *testing.B) {
	benchBlock(b, 4, U32s, func(i int) uint32 { return uint32(i) * 2654435761 })
}

func BenchmarkF64s(b *testing.B) {
	benchBlock(b, 8, F64s, func(i int) float64 { return float64(i) / 3 })
}
