package plasmahd_test

// One benchmark per reproduced table/figure (see DESIGN.md §3). Each bench
// runs the corresponding experiment harness at a reduced scale so that
// `go test -bench=. -benchmem` finishes in minutes; cmd/plasmabench runs
// the same code at full reproduction scale.

import (
	"io"
	"testing"

	"plasmahd/internal/bayeslsh"
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

func benchProbe(b *testing.B, ds *vec.Dataset, t float64, c *bayeslsh.Cache) int64 {
	res, err := bayeslsh.Search(ds, t, c, nil)
	if err != nil {
		b.Fatal(err)
	}
	return res.HashesCompared
}

// BenchmarkRepeatProbe measures the steady-state cost of the Fig 2.1
// interactive loop: a probe on a closed knowledge cache. The cold probe
// outside the timed loop pays for sketch-backed evidence AND the persistent
// candidate index build; every timed iteration, from the first, then decides
// each candidate from its stored (N, M) — hashes/op must read 0 — and reuses
// the index and the pooled probe scratch, so wall time and allocs/op here are
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
		hashes += benchProbe(b, ds, 0.8, c)
	}
	b.ReportMetric(float64(hashes)/float64(b.N), "hashes/op")
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
			hashes += benchProbe(b, ds, t, c)
		}
	}
	b.ReportMetric(float64(hashes)/float64(b.N), "hashes/op")
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
