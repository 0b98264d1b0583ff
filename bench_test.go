package plasmahd_test

// One benchmark per reproduced table/figure (internal/experiments registers
// each under its ID; `go run ./cmd/plasmabench -list` names them). Each bench
// runs the corresponding experiment harness at a reduced scale so that
// `go test -bench=. -benchmem` finishes in minutes; cmd/plasmabench runs
// the same code at full reproduction scale.

import (
	"bytes"
	"io"
	"testing"

	"plasmahd/bench/gen"
	"plasmahd/internal/bayeslsh"
	"plasmahd/internal/core"
	"plasmahd/internal/dataset"
	"plasmahd/internal/experiments"
	"plasmahd/internal/vec"
)

// benchScale caps dataset sizes during benchmarking.
const benchScale = 150

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	e, err := experiments.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	opt := experiments.Options{Scale: benchScale, Seed: 1}
	for i := 0; i < b.N; i++ {
		if err := e.Run(io.Discard, opt); err != nil {
			b.Fatal(err)
		}
	}
}

// repeatCorpus returns the corpus and params of the repeat-probe benchmarks.
// Workers is pinned to 1 so allocs/op measures the engine, not goroutine
// scheduling.
func repeatCorpus(b *testing.B) (*vec.Dataset, bayeslsh.Params) {
	ds, err := dataset.NewCorpusScaled("twitter", 400, 1)
	if err != nil {
		b.Fatal(err)
	}
	p := bayeslsh.DefaultParams()
	p.Workers = 1
	return ds, p
}

func benchProbe(b *testing.B, ds *vec.Dataset, t float64, c *bayeslsh.Cache) *bayeslsh.Result {
	res, err := bayeslsh.Search(ds, t, c, nil)
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// BenchmarkRepeatProbe measures the steady-state cost of the Fig 2.1
// interactive loop: a probe on a closed knowledge cache. The cold probe
// outside the timed loop pays for sketch-backed evidence AND the persistent
// candidate index build, and leaves each row's run holding exactly its
// candidates; every timed iteration, from the first, then walks those runs
// instead of generating candidates, decides each candidate from its stored
// (N, M) — hashes/op must read 0 — and reuses the pooled probe scratch, so
// wall time and allocs/op here are
// the closed-cache probe (`make bench-repeat`; the repository benchmark
// reports the same layer as bayeslsh.hit_probe_s and bayeslsh.probe_allocs).
func BenchmarkRepeatProbe(b *testing.B) {
	ds, p := repeatCorpus(b)
	c := bayeslsh.NewCache(ds, p, 1)
	benchProbe(b, ds, 0.8, c)
	var hashes int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hashes += benchProbe(b, ds, 0.8, c).HashesCompared
	}
	b.ReportMetric(float64(hashes)/float64(b.N), "hashes/op")
}

// BenchmarkRepeatProbeLong is BenchmarkRepeatProbe on the benchmark's
// onboard-long shape: 2 500 long set-valued rows over 1.25 M dimensions
// under Jaccard, where a few candidates a row are found among ≈ 110
// features and the warm probe's cost is finding them, not deciding them.
// After the cold probe outside the timer every row that has candidates holds
// exactly them in its run, so every timed probe walks those runs instead of
// scanning the candidate index; hashes/op must read 0 and rows-walked/op is
// Result.RowsWalked.
func BenchmarkRepeatProbeLong(b *testing.B) {
	d := gen.LongsetJaccard{Rows: 2500, Dim: 1_250_000, MinNnz: 100, MaxNnz: 120,
		GroupFrac: 0.3, GroupMin: 2, GroupMax: 6, KeepLo: 0.85, KeepHi: 0.98}.Generate(1)
	ds := d.Dataset(0, len(d.Rows))
	p := bayeslsh.DefaultParams()
	p.Workers = 1
	c := bayeslsh.NewCache(ds, p, 1)
	benchProbe(b, ds, 0.6, c)
	var hashes int64
	var walked int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := benchProbe(b, ds, 0.6, c)
		hashes += res.HashesCompared
		walked += res.RowsWalked
	}
	b.ReportMetric(float64(hashes)/float64(b.N), "hashes/op")
	b.ReportMetric(float64(walked)/float64(b.N), "rows-walked/op")
}

// BenchmarkRepeatProbeDense is BenchmarkRepeatProbe on the benchmark's
// explore-dense shape: its corpus, 500 rows, 2 workers. After the
// 0.9/0.8/0.7/0.6 ladder outside the timer every row's run holds its
// candidates, ≈ 78 k pairs, and each pair's stored state answers a repeat
// 0.8 probe: the walk decides every pair under its run's read lock and no
// pair reaches the workers, so hashes/op must read 0 and hits/op is
// Result.CacheHits.
func BenchmarkRepeatProbeDense(b *testing.B) {
	corpus := gen.ZipfCosine{Rows: 500, Dim: 6000, MinNnz: 30, MaxNnz: 60, ZipfS: 1.25,
		Communities: 40, Cohesion: 0.85, BlockZipfS: 1.3}
	ds := corpus.Generate(1).Dataset(0, corpus.Rows)
	p := bayeslsh.DefaultParams()
	p.Workers = 2
	c := bayeslsh.NewCache(ds, p, 1)
	for _, t := range []float64{0.9, 0.8, 0.7, 0.6} {
		benchProbe(b, ds, t, c)
	}
	var hashes int64
	var hits int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := benchProbe(b, ds, 0.8, c)
		hashes += res.HashesCompared
		hits += res.CacheHits
	}
	b.ReportMetric(float64(hashes)/float64(b.N), "hashes/op")
	b.ReportMetric(float64(hits)/float64(b.N), "hits/op")
}

// BenchmarkLadder measures the exploring half of the loop: after a cold 0.9
// probe outside the timer, one iteration walks 0.8, 0.7, 0.6 and back up to
// 0.8 on that cache. Each downward rung resumes only the pairs that survive
// its bound from their stored evidence, and the return to 0.8 compares
// nothing; hashes/op is the ladder's total.
func BenchmarkLadder(b *testing.B) {
	ds, p := repeatCorpus(b)
	var hashes int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		c := bayeslsh.NewCache(ds, p, 1)
		benchProbe(b, ds, 0.9, c)
		b.StartTimer()
		for _, t := range []float64{0.8, 0.7, 0.6, 0.8} {
			hashes += benchProbe(b, ds, t, c).HashesCompared
		}
	}
	b.ReportMetric(float64(hashes)/float64(b.N), "hashes/op")
}

// onboardSession is a session in the benchmark's onboard-long shape as it
// leaves memory: 2 500 long Jaccard rows over 1.25 M dimensions, probed down
// the 0.9/0.8/0.7/0.6 ladder, then grown by one 40-row append, so its
// snapshot embeds the dataset. The session benchmarks below time its
// snapshot both ways.
func onboardSession(b *testing.B) *core.Session {
	d := gen.LongsetJaccard{Rows: 2540, Dim: 1_250_000, MinNnz: 100, MaxNnz: 120,
		GroupFrac: 0.3, GroupMin: 2, GroupMax: 6, KeepLo: 0.85, KeepHi: 0.98}.Generate(1)
	p := bayeslsh.DefaultParams()
	p.Workers = 1
	s := core.NewSession(d.Dataset(0, 2500), p, 1)
	for _, t := range []float64{0.9, 0.8, 0.7, 0.6} {
		if _, err := s.Probe(t); err != nil {
			b.Fatal(err)
		}
	}
	if _, err := s.AppendRows(d.Dataset(2500, 2540).Rows); err != nil {
		b.Fatal(err)
	}
	return s
}

// BenchmarkSessionSnapshot times a session snapshot on the onboard-long
// shape, the encode every download, persist and spill pays: the dataset,
// the signatures and the pair runs move as blocks, and the embedded dataset
// is not hashed. MB/s is of snapshot bytes (`make bench-snapshot`).
func BenchmarkSessionSnapshot(b *testing.B) {
	s := onboardSession(b)
	var buf bytes.Buffer
	if err := s.Snapshot(&buf); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(buf.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := s.Snapshot(&buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSessionRestore decodes BenchmarkSessionSnapshot's stream, what
// every restore upload and revive pays: the embedded dataset, taken as it
// sits with no content hash to check, the signatures and the pair runs.
func BenchmarkSessionRestore(b *testing.B) {
	var buf bytes.Buffer
	if err := onboardSession(b).Snapshot(&buf); err != nil {
		b.Fatal(err)
	}
	snap := buf.Bytes()
	b.SetBytes(int64(len(snap)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.RestoreSession(bytes.NewReader(snap), nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE21_DatasetInventory(b *testing.B)   { benchExperiment(b, "E2.1") }
func BenchmarkE22_ToyProbe(b *testing.B)           { benchExperiment(b, "E2.2") }
func BenchmarkE23_CumulativeAPSS(b *testing.B)     { benchExperiment(b, "E2.3") }
func BenchmarkE24_TriangleCues(b *testing.B)       { benchExperiment(b, "E2.4") }
func BenchmarkE25_Incremental(b *testing.B)        { benchExperiment(b, "E2.5") }
func BenchmarkE26_SketchProportion(b *testing.B)   { benchExperiment(b, "E2.6") }
func BenchmarkE27_KnowledgeCache(b *testing.B)     { benchExperiment(b, "E2.7") }
func BenchmarkE31_GrowthDatasets(b *testing.B)     { benchExperiment(b, "E3.1") }
func BenchmarkE32_MeasureSweep(b *testing.B)       { benchExperiment(b, "E3.2") }
func BenchmarkE33_TranslationScaling(b *testing.B) { benchExperiment(b, "E3.3") }
func BenchmarkE34_Regression(b *testing.B)         { benchExperiment(b, "E3.4") }
func BenchmarkE35_ErrorTable(b *testing.B)         { benchExperiment(b, "E3.5") }
func BenchmarkE36_SamplingDist(b *testing.B)       { benchExperiment(b, "E3.6") }
func BenchmarkE37_MeasureRuntimes(b *testing.B)    { benchExperiment(b, "E3.7") }
func BenchmarkE38_TriangleSpeedup(b *testing.B)    { benchExperiment(b, "E3.8") }
func BenchmarkE41_PhaseBreakdown(b *testing.B)     { benchExperiment(b, "E4.1") }
func BenchmarkE42_UtilityCompression(b *testing.B) { benchExperiment(b, "E4.2") }
func BenchmarkE43_Compressors(b *testing.B)        { benchExperiment(b, "E4.3") }
func BenchmarkE44_SampledBaseline(b *testing.B)    { benchExperiment(b, "E4.4") }
func BenchmarkE45_Classification(b *testing.B)     { benchExperiment(b, "E4.5") }
func BenchmarkE46_ClosedComparison(b *testing.B)   { benchExperiment(b, "E4.6") }
func BenchmarkE47_PLAMScaling(b *testing.B)        { benchExperiment(b, "E4.7") }
func BenchmarkE48_LengthCompression(b *testing.B)  { benchExperiment(b, "E4.8") }
func BenchmarkE49_CompressThresholds(b *testing.B) { benchExperiment(b, "E4.9") }
func BenchmarkE51_OrderingTimes(b *testing.B)      { benchExperiment(b, "E5.1") }
func BenchmarkE52_EnergyReduction(b *testing.B)    { benchExperiment(b, "E5.2") }
