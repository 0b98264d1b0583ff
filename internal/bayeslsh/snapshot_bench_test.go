package bayeslsh

import (
	"bytes"
	"sync"
	"testing"

	"plasmahd/bench/gen"
)

// denseLadderCache is the cache of the explore-dense benchmark workload's
// shape — its corpus parameters, 500 rows, default params — after the
// 0.9/0.8/0.7/0.6 probe ladder: ≈ 80 k cached pairs, most of them pruned
// below 0.6, the rest verified exactly.
var denseLadderCache = sync.OnceValues(func() (*Cache, error) {
	corpus := gen.ZipfCosine{Rows: 500, Dim: 6000, MinNnz: 30, MaxNnz: 60, ZipfS: 1.25,
		Communities: 40, Cohesion: 0.85, BlockZipfS: 1.3}
	ds := corpus.Generate(1).Dataset(0, corpus.Rows)
	c := NewCache(ds, DefaultParams(), 1)
	for _, th := range []float64{0.9, 0.8, 0.7, 0.6} {
		if _, err := Search(ds, th, c, nil); err != nil {
			return nil, err
		}
	}
	return c, nil
})

func denseLadderSnapshot(b *testing.B) (*Cache, []byte) {
	b.Helper()
	c, err := denseLadderCache()
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if err := c.EncodeSnapshot(&buf); err != nil {
		b.Fatal(err)
	}
	return c, buf.Bytes()
}

// BenchmarkEncodeSnapshot encodes the explore-dense-shaped cache: each
// row's run copied out under its read lock and written as it sits
// (`make bench-snapshot`; MB/s is of snapshot bytes).
func BenchmarkEncodeSnapshot(b *testing.B) {
	c, snap := denseLadderSnapshot(b)
	var buf bytes.Buffer
	buf.Grow(len(snap))
	b.SetBytes(int64(len(snap)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := c.EncodeSnapshot(&buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecodeSnapshot decodes the same snapshot: the walk, filling each
// row's run from its records, then the decision tables — what a restore or
// a revive pays in the engine.
func BenchmarkDecodeSnapshot(b *testing.B) {
	_, snap := denseLadderSnapshot(b)
	b.SetBytes(int64(len(snap)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeSnapshot(bytes.NewReader(snap)); err != nil {
			b.Fatal(err)
		}
	}
}
