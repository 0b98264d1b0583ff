package core

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"plasmahd/internal/bayeslsh"
	"plasmahd/internal/vec"
)

// ingestCosineDS builds a deterministic normalized cosine dataset.
func ingestCosineDS(n int) *vec.Dataset {
	ds := &vec.Dataset{Name: "ingest-cos", Dim: 24, Measure: vec.CosineSim}
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

// ingestJaccardDS builds a deterministic Jaccard dataset.
func ingestJaccardDS(n int) *vec.Dataset {
	ds := &vec.Dataset{Name: "ingest-jac", Dim: 40, Measure: vec.JaccardSim}
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

func ingestPrefix(full *vec.Dataset, n int) *vec.Dataset {
	return &vec.Dataset{Name: full.Name, Dim: full.Dim, Measure: full.Measure, Rows: full.Rows[:n:n]}
}

// grownSession builds a session over the first base rows and appends the
// rest in the given batch sizes (rows are already in final form — the
// datasets above are pre-normalized).
func grownSession(t *testing.T, full *vec.Dataset, base int, sizes []int, p bayeslsh.Params, seed int64) *Session {
	t.Helper()
	s := NewSession(ingestPrefix(full, base), p, seed)
	at := base
	for _, sz := range sizes {
		if _, err := s.AppendRows(full.Rows[at : at+sz]); err != nil {
			t.Fatal(err)
		}
		at += sz
	}
	if at != full.N() {
		t.Fatalf("split covers %d rows, want %d", at, full.N())
	}
	return s
}

// normalizedSnapshot is a quiescent session's snapshot with the fields that
// legitimately differ between a grown session and a from-scratch one
// zeroed: the append epoch, the processing-time total and the sketch time,
// the cache's record of how it got to its state rather than the state.
// Everything else must match byte for byte.
func normalizedSnapshot(t *testing.T, s *Session) []byte {
	t.Helper()
	snap := snapshotOf(t, s)
	at := snapHeadLen + len(datasetBytes(s.Dataset()))
	clear(snap[at : at+4]) // append epoch
	at += 4 + 8 + 4 + 8*len(s.Thresholds())
	clear(snap[at : at+16]) // processing-time total, sketch time
	return resealed(snap[:len(snap)-4])
}

// TestSessionIngestEquivalence is the session half of the differential
// ingest harness: across both measures, several batch splits, and several
// worker counts, a session grown by AppendRows must be indistinguishable
// from one created over the full dataset — identical probe results, curves,
// knees, and cue sets, and (time fields and epoch aside) byte-identical
// snapshots. The snapshot of the grown session must additionally round-trip
// through RestoreSession unchanged, append epoch included.
func TestSessionIngestEquivalence(t *testing.T) {
	forceParallel(t)
	const base = 30
	thresholds := []float64{0.9, 0.7, 0.5}
	grid := ThresholdGrid(0.3, 0.95, 10)
	splits := [][]int{{30}, {10, 10, 10}, {1, 5, 24}}
	for _, m := range []struct {
		name string
		full *vec.Dataset
	}{
		{"cosine", ingestCosineDS(60)},
		{"jaccard", ingestJaccardDS(60)},
	} {
		for si, sizes := range splits {
			for _, wk := range []int{1, 3} {
				t.Run(fmt.Sprintf("%s/split%d/w%d", m.name, si, wk), func(t *testing.T) {
					p := bayeslsh.DefaultParams()
					p.Workers = wk
					scratch := NewSession(m.full, p, 11)
					grown := grownSession(t, m.full, base, sizes, p, 11)
					if got := grown.AppendEpoch(); got != int64(len(sizes)) {
						t.Fatalf("append epoch %d, want %d", got, len(sizes))
					}
					if grown.Dataset().N() != m.full.N() {
						t.Fatalf("grown view has %d rows, want %d", grown.Dataset().N(), m.full.N())
					}

					equalResults(t, "probes", probeSeq(t, scratch, thresholds), probeSeq(t, grown, thresholds))

					wantCurve := scratch.CumulativeAPSS(grid)
					gotCurve := grown.CumulativeAPSS(grid)
					for k := range wantCurve {
						if wantCurve[k] != gotCurve[k] {
							t.Fatalf("curve point %d: %+v vs %+v", k, wantCurve[k], gotCurve[k])
						}
					}
					if wk, gk := FindKnee(wantCurve), FindKnee(gotCurve); wk != gk {
						t.Fatalf("knee %v vs %v", wk, gk)
					}

					wantCue, gotCue := scratch.CueSet(0.7), grown.CueSet(0.7)
					if wantCue.Triangles() != gotCue.Triangles() ||
						wantCue.Components() != gotCue.Components() ||
						wantCue.CurveEstimate() != gotCue.CurveEstimate() {
						t.Fatalf("cues differ: %d/%d triangles, %d/%d components, curve estimate %v/%v",
							wantCue.Triangles(), gotCue.Triangles(),
							wantCue.Components(), gotCue.Components(),
							wantCue.CurveEstimate(), gotCue.CurveEstimate())
					}
					wp, gp := wantCue.DensityProfile(), gotCue.DensityProfile()
					if len(wp) != len(gp) {
						t.Fatalf("density profiles: %d vs %d entries", len(wp), len(gp))
					}
					for k := range wp {
						if wp[k] != gp[k] {
							t.Fatalf("density profile entry %d: %d vs %d", k, wp[k], gp[k])
						}
					}

					// A sweep reads the same counted curve mid-probe, through
					// its row-prefix form; both sessions take the extra probe.
					wantSweep, err := scratch.ProbeIncremental(0.4, grid, 5)
					if err != nil {
						t.Fatal(err)
					}
					gotSweep, err := grown.ProbeIncremental(0.4, grid, 5)
					if err != nil {
						t.Fatal(err)
					}
					if len(wantSweep) == 0 || len(wantSweep) != len(gotSweep) {
						t.Fatalf("sweep snapshots: %d vs %d", len(wantSweep), len(gotSweep))
					}
					for i := range wantSweep {
						for t2, est := range wantSweep[i].Estimates {
							if got := gotSweep[i].Estimates[t2]; got != est {
								t.Fatalf("sweep snapshot %d t2=%v: %v vs %v", i, t2, est, got)
							}
						}
					}

					// Round trip of the grown session, epoch intact: restore
					// then re-snapshot must reproduce the input bytes.
					var gb bytes.Buffer
					if err := grown.Snapshot(&gb); err != nil {
						t.Fatal(err)
					}
					restored, err := RestoreSession(bytes.NewReader(gb.Bytes()), nil)
					if err != nil {
						t.Fatal(err)
					}
					if restored.AppendEpoch() != grown.AppendEpoch() {
						t.Fatalf("restored epoch %d, want %d", restored.AppendEpoch(), grown.AppendEpoch())
					}
					var rb bytes.Buffer
					if err := restored.Snapshot(&rb); err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(gb.Bytes(), rb.Bytes()) {
						t.Fatalf("restore round trip changed snapshot: %d vs %d bytes", gb.Len(), rb.Len())
					}

					// Grown vs scratch byte identity, once the legitimately
					// differing fields (times, epoch) are zeroed.
					sb, gb2 := normalizedSnapshot(t, scratch), normalizedSnapshot(t, grown)
					if !bytes.Equal(sb, gb2) {
						t.Fatalf("snapshots differ: scratch %d bytes, grown %d bytes", len(sb), len(gb2))
					}
				})
			}
		}
	}
}

// TestCueSetInvalidatedByAppend is the regression test for the cue-key
// staleness bug: an append that adds rows but (with no probe in between) no
// pairs must still invalidate the memoized cue layer — the cached graph's
// vertex count would otherwise go stale at the pre-append row count.
func TestCueSetInvalidatedByAppend(t *testing.T) {
	full := ingestCosineDS(40)
	s := NewSession(ingestPrefix(full, 30), bayeslsh.DefaultParams(), 5)
	probeSeq(t, s, []float64{0.7})
	before := s.CueSet(0.7)
	if got := before.Graph().N(); got != 30 {
		t.Fatalf("pre-append graph has %d vertices, want 30", got)
	}
	if _, err := s.AppendRows(full.Rows[30:]); err != nil {
		t.Fatal(err)
	}
	// Same threshold, same pair store, same probe count — only the row
	// count changed.
	after := s.CueSet(0.7)
	if after == before {
		t.Fatal("CueSet served the pre-append graph after rows were added")
	}
	if got := after.Graph().N(); got != 40 {
		t.Fatalf("post-append graph has %d vertices, want 40", got)
	}
}

// TestConcurrentAppendProbeCue hammers one session with concurrent appends,
// probes, and cue/curve/top-K reads. It pins the documented concurrency
// contract — appends serialize, probes pin a dataset view, cue readers
// never see a graph inconsistent with its own vertex set — and gives the
// race detector surface over the whole append path (run under `make race`).
func TestConcurrentAppendProbeCue(t *testing.T) {
	full := ingestCosineDS(120)
	const base = 40
	s := NewSession(ingestPrefix(full, base), bayeslsh.DefaultParams(), 13)
	probeSeq(t, s, []float64{0.8})

	var wg sync.WaitGroup
	// Appender: grow 40 -> 120 in batches of 8.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for at := base; at < full.N(); at += 8 {
			if _, err := s.AppendRows(full.Rows[at : at+8]); err != nil {
				t.Errorf("append at %d: %v", at, err)
				return
			}
		}
	}()
	// Probers at interleaved thresholds.
	for _, th := range []float64{0.9, 0.7, 0.5} {
		wg.Add(1)
		go func(th float64) {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				if _, err := s.Probe(th); err != nil {
					t.Errorf("probe t=%v: %v", th, err)
					return
				}
			}
		}(th)
	}
	// Cue, curve, and top-K readers.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 12; i++ {
			cs := s.CueSet(0.7)
			if n, pn := cs.Graph().N(), len(cs.DensityProfile()); pn != n {
				t.Errorf("cue set inconsistent: %d vertices, %d profile entries", n, pn)
				return
			}
			s.CumulativeAPSS([]float64{0.6, 0.8})
			s.KNNGraph(3)
			s.KNNThresholdEquivalent(3)
		}
	}()
	// Snapshotter: takes the append lock while appends and probes run, and
	// restores every snapshot it takes. Each must hold whole batches — the
	// rows, the sketches and the epoch of one published view — probe
	// without error and re-snapshot to its own bytes.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 6; i++ {
			var buf bytes.Buffer
			if err := s.Snapshot(&buf); err != nil {
				t.Errorf("snapshot: %v", err)
				return
			}
			restored, err := RestoreSession(bytes.NewReader(buf.Bytes()), nil)
			if err != nil {
				t.Errorf("restore snapshot %d: %v", i, err)
				return
			}
			if rows, epoch := restored.Dataset().N(), restored.AppendEpoch(); rows != base+int(epoch)*8 {
				t.Errorf("snapshot %d: %d rows at epoch %d, want %d", i, rows, epoch, base+int(epoch)*8)
				return
			}
			var again bytes.Buffer
			if err := restored.Snapshot(&again); err != nil || !bytes.Equal(again.Bytes(), buf.Bytes()) {
				t.Errorf("snapshot %d re-snapshots to %d bytes, not its own %d (err %v)", i, again.Len(), buf.Len(), err)
				return
			}
			if _, err := restored.Probe(0.6); err != nil {
				t.Errorf("probe restored snapshot %d: %v", i, err)
				return
			}
		}
	}()
	wg.Wait()

	if got := s.Dataset().N(); got != full.N() {
		t.Fatalf("final view has %d rows, want %d", got, full.N())
	}
	// Quiesced, the grown session still probes like a scratch build at a
	// fresh threshold (existing evidence only deepens estimates for pairs
	// probed at other thresholds, so compare pair counts, not bytes).
	res, err := s.Probe(0.95)
	if err != nil {
		t.Fatal(err)
	}
	scratch := NewSession(full, bayeslsh.DefaultParams(), 13)
	want, err := scratch.Probe(0.95)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Pairs) != len(want.Pairs) {
		t.Fatalf("grown session found %d pairs at 0.95, scratch %d", len(res.Pairs), len(want.Pairs))
	}
	// A snapshot of the busy-then-quiesced session must still round-trip.
	var buf bytes.Buffer
	if err := s.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := RestoreSession(bytes.NewReader(buf.Bytes()), nil); err != nil {
		t.Fatal(err)
	}
}
