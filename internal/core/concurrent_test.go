package core

import (
	"math"
	"runtime"
	"sync"
	"testing"

	"plasmahd/internal/bayeslsh"
	"plasmahd/internal/dataset"
)

// TestConcurrentProbesSharedCache fans four-plus Session.Probe calls over
// one shared knowledge cache while curve and cue readers run alongside —
// the interactive many-users-one-dataset scenario. Under -race this is the
// session-level data-race check; the assertions pin that concurrent probes
// only ever grow the cache's evidence.
func TestConcurrentProbesSharedCache(t *testing.T) {
	tab, err := dataset.NewTable("wine", 1)
	if err != nil {
		t.Fatal(err)
	}
	ds := tab.Dataset()
	p := bayeslsh.DefaultParams()
	p.Workers = 2
	s := NewSession(ds, p, 42)

	thresholds := []float64{0.9, 0.85, 0.8, 0.75, 0.7, 0.65}
	grid := ThresholdGrid(0.5, 0.95, 10)
	var wg sync.WaitGroup
	for _, th := range thresholds {
		wg.Add(1)
		go func(th float64) {
			defer wg.Done()
			if _, err := s.Probe(th); err != nil {
				t.Error(err)
			}
		}(th)
	}
	// Readers exercise the per-row iteration paths mid-probe.
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				s.CumulativeAPSS(grid)
				s.ThresholdGraph(0.8)
				s.Cache.Pairs.Len()
			}
		}()
	}
	wg.Wait()

	if got := s.ProbeCount(); got != len(thresholds) {
		t.Fatalf("recorded %d probes, want %d", got, len(thresholds))
	}
	// After the dust settles the curve must still track ground truth above
	// the lowest probed threshold.
	curve := s.CumulativeAPSS(grid)
	truth := bayeslsh.ExactCurve(ds, grid)
	for k, pt := range curve {
		if pt.Threshold < 0.65 || truth[k] == 0 {
			continue
		}
		rel := math.Abs(pt.Estimate-float64(truth[k])) / float64(truth[k])
		if rel > 0.15 {
			t.Errorf("t=%.2f estimate %.0f vs truth %d (rel err %.2f)",
				pt.Threshold, pt.Estimate, truth[k], rel)
		}
	}
}

// forceParallel runs the rest of the test under GOMAXPROCS(4), so worker
// pools truly interleave and a 1-CPU container cannot hide a result that
// depends on the schedule.
func forceParallel(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// TestProbeIncrementalDeterministicAcrossWorkers pins that the snapshot
// extrapolations are bit-identical for any worker count: the probe's batch
// boundaries move with it, the evidence within the processed rows does not.
func TestProbeIncrementalDeterministicAcrossWorkers(t *testing.T) {
	forceParallel(t)
	tab, err := dataset.NewTable("wine", 1)
	if err != nil {
		t.Fatal(err)
	}
	ds := tab.Dataset()
	run := func(workers int) []IncrementalSnapshot {
		p := bayeslsh.DefaultParams()
		p.Workers = workers
		s := NewSession(ds, p, 42)
		snaps, err := s.ProbeIncremental(0.5, []float64{0.75, 0.8, 0.85}, 10)
		if err != nil {
			t.Fatal(err)
		}
		return snaps
	}
	serial, parallel := run(1), run(8)
	if len(serial) != len(parallel) {
		t.Fatalf("%d vs %d snapshots", len(serial), len(parallel))
	}
	for i := range serial {
		for t2, est := range serial[i].Estimates {
			if pest := parallel[i].Estimates[t2]; pest != est {
				t.Errorf("snapshot %d t2=%v: %v serial vs %v parallel", i, t2, est, pest)
			}
		}
	}
}

// TestKnowledgeCachingWorkloadWorkers pins that the parallel uncached
// baseline arm reports the same deterministic hash counts as a serial run.
func TestKnowledgeCachingWorkloadWorkers(t *testing.T) {
	forceParallel(t)
	d, err := dataset.NewCorpusScaled("twitter", 300, 3)
	if err != nil {
		t.Fatal(err)
	}
	thresholds := []float64{0.95, 0.9, 0.85, 0.8}
	run := func(workers int) []CachingStep {
		p := bayeslsh.DefaultParams()
		p.Workers = workers
		steps, err := KnowledgeCachingWorkload(d, p, thresholds, 11)
		if err != nil {
			t.Fatal(err)
		}
		return steps
	}
	serial, parallel := run(1), run(4)
	for i := range serial {
		if serial[i].CachedHashes != parallel[i].CachedHashes ||
			serial[i].UncachedHashes != parallel[i].UncachedHashes {
			t.Errorf("step %d: hashes differ between worker counts: %+v vs %+v",
				i, serial[i], parallel[i])
		}
	}
}
