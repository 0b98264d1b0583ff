package bayeslsh

import (
	"bytes"
	"testing"
)

// FuzzDecodeSnapshot feeds arbitrary bytes to the cache snapshot decoder.
// The decoder is the trust boundary for warm starts and over-the-wire
// restores, so it must never panic or over-allocate, and any stream it does
// accept must re-encode to itself byte for byte: the layout leaves an
// encoder no choices, and the walk refuses what it would not write.
func FuzzDecodeSnapshot(f *testing.F) {
	// Seed with a real probed snapshot (populated pair store), a truncation,
	// a bare magic, and junk. The corpus in testdata/fuzz adds mutated
	// headers found by earlier runs.
	ds := snapDataset(12)
	c := NewCache(ds, DefaultParams(), 1)
	if _, err := SearchWorkers(ds, 0.7, c, nil, 1); err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := c.EncodeSnapshot(&buf); err != nil {
		f.Fatal(err)
	}
	full := bytes.Clone(buf.Bytes())
	f.Add(full)
	f.Add(full[:len(full)/2])
	f.Add([]byte("PLHDSESS"))
	f.Add([]byte("not a snapshot"))

	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		dc, err := DecodeSnapshot(r)
		if err != nil {
			if dc != nil {
				t.Fatal("DecodeSnapshot returned both a cache and an error")
			}
			return
		}
		var out bytes.Buffer
		if err := dc.EncodeSnapshot(&out); err != nil {
			t.Fatalf("re-encode of accepted snapshot: %v", err)
		}
		// The decoder reads exactly the stream it accepts; bytes after its
		// trailer are not its own.
		if accepted := data[:len(data)-r.Len()]; !bytes.Equal(out.Bytes(), accepted) {
			t.Fatalf("accepted stream of %d bytes re-encodes to %d different bytes", len(accepted), out.Len())
		}
	})
}
