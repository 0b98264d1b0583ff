package bayeslsh

import (
	"bytes"
	"fmt"
	"testing"

	"plasmahd/internal/vec"
	"plasmahd/internal/vec/vectest"
)

// splitSizes describes how the appended suffix is chopped into batches.
var ingestSplits = []struct {
	name  string
	sizes []int // must sum to the suffix length (30)
}{
	{"one-batch", []int{30}},
	{"thirds", []int{10, 10, 10}},
	{"uneven", []int{1, 5, 24}},
	{"singles-head", []int{1, 1, 1, 27}},
}

// prefixOf returns a dataset view over the first n rows.
func prefixOf(ds *vec.Dataset, n int) *vec.Dataset {
	return &vec.Dataset{Name: ds.Name, Dim: ds.Dim, Measure: ds.Measure, Rows: ds.Rows[:n:n]}
}

// growCache builds a cache over the first base rows and appends the rest in
// the given batch sizes.
func growCache(t *testing.T, full *vec.Dataset, base int, sizes []int, p Params, seed int64) *Cache {
	t.Helper()
	c := NewCache(prefixOf(full, base), p, seed)
	at := base
	for _, sz := range sizes {
		if _, err := c.AppendRows(full.Rows[at : at+sz]); err != nil {
			t.Fatal(err)
		}
		at += sz
	}
	if at != full.N() {
		t.Fatalf("split sizes cover %d rows, want %d", at-base, full.N()-base)
	}
	if c.Rows() != full.N() {
		t.Fatalf("grown cache has %d rows, want %d", c.Rows(), full.N())
	}
	return c
}

// TestAppendRowsEquivalence is the engine half of the differential ingest
// harness: for both measures, several batch splits, and several worker
// counts, a cache grown by AppendRows must be indistinguishable from one
// built from the full dataset up front — identical probe results (pairs and
// engine counters) and, once quiescent, byte-identical snapshots. Only the
// history may differ (SketchTime records the initial build's cost, the
// append count the batches, the probe history wall-clock times), so it is
// forgotten before the byte comparison.
func TestAppendRowsEquivalence(t *testing.T) {
	forceParallel(t)
	const base = 30
	thresholds := []float64{0.9, 0.7, 0.5}
	for _, m := range []struct {
		name string
		full *vec.Dataset
	}{
		{"cosine", snapDataset(60)},
		{"jaccard", snapJaccardDataset(60)},
	} {
		for _, split := range ingestSplits {
			for _, wk := range []int{1, 3} {
				t.Run(fmt.Sprintf("%s/%s/w%d", m.name, split.name, wk), func(t *testing.T) {
					p := DefaultParams()
					p.Workers = wk
					scratch := NewCache(m.full, p, 7)
					grown := growCache(t, m.full, base, split.sizes, p, 7)

					want := probeAll(t, m.full, scratch, thresholds, wk)
					got := probeAll(t, m.full, grown, thresholds, wk)
					sameResults(t, want, got)

					forgetHistory(scratch)
					forgetHistory(grown)
					var sb, gb bytes.Buffer
					if err := scratch.EncodeSnapshot(&sb); err != nil {
						t.Fatal(err)
					}
					if err := grown.EncodeSnapshot(&gb); err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(sb.Bytes(), gb.Bytes()) {
						t.Fatalf("snapshot bytes differ: scratch %d bytes, grown %d bytes",
							sb.Len(), gb.Len())
					}

					// The grown cache's snapshot must also round-trip into a
					// cache that probes byte-identically. Both runs here are
					// warm (all evidence cached), so comparing restored to a
					// re-probe of scratch keeps the counters comparable.
					restored, err := DecodeSnapshot(bytes.NewReader(gb.Bytes()))
					if err != nil {
						t.Fatal(err)
					}
					warm := probeAll(t, m.full, scratch, thresholds, wk)
					sameResults(t, warm, probeAll(t, m.full, restored, thresholds, wk))
				})
			}
		}
	}
}

// TestAppendRowsInterleavedProbes probes between appends: the evidence
// accumulated on prefix views must never change which pairs a final
// full-view probe reports, nor their estimates — prefix evidence is a
// cache-hit head start, not a divergence. Engine counters legitimately
// differ (cache hits replace hash comparisons), so only the pair lists are
// compared.
func TestAppendRowsInterleavedProbes(t *testing.T) {
	const base, thr = 30, 0.7
	for _, m := range []struct {
		name string
		full *vec.Dataset
	}{
		{"cosine", snapDataset(60)},
		{"jaccard", snapJaccardDataset(60)},
	} {
		t.Run(m.name, func(t *testing.T) {
			p := DefaultParams()
			scratch := NewCache(m.full, p, 7)
			want, err := SearchWorkers(m.full, thr, scratch, nil, 2)
			if err != nil {
				t.Fatal(err)
			}

			grown := NewCache(prefixOf(m.full, base), p, 7)
			for _, stop := range []int{base, 40, 50, 60} {
				if stop > base {
					if _, err := grown.AppendRows(m.full.Rows[grown.Rows():stop]); err != nil {
						t.Fatal(err)
					}
				}
				res, err := SearchWorkers(prefixOf(m.full, stop), thr, grown, nil, 2)
				if err != nil {
					t.Fatal(err)
				}
				if stop == m.full.N() {
					if len(res.Pairs) != len(want.Pairs) {
						t.Fatalf("final probe: %d pairs, want %d", len(res.Pairs), len(want.Pairs))
					}
					for i := range want.Pairs {
						if res.Pairs[i] != want.Pairs[i] {
							t.Fatalf("final probe pair %d: %+v, want %+v", i, res.Pairs[i], want.Pairs[i])
						}
					}
				}
			}
		})
	}
}

// TestAppendRowsValidation: each malformed row of the shared table is
// refused, by a cache of the row's measure, with the row check's message,
// and a refused batch — the bad row behind a good one — leaves the
// published view as it was: row count and signatures. The table's
// well-formed rows are then appended. Both hash families.
func TestAppendRowsValidation(t *testing.T) {
	for _, m := range []vec.Measure{vec.CosineSim, vec.JaccardSim} {
		ds := &vec.Dataset{Name: "check", Dim: vectest.Dim, Measure: m}
		for i := range 10 {
			ds.Rows = append(ds.Rows, vec.Sparse{Indices: []int32{int32(i % vectest.Dim)}, Values: []float64{1}})
		}
		c := NewCache(ds, DefaultParams(), 1)
		before := c.view.Load()
		var good [][]vec.Sparse
		for _, tc := range vectest.Rows {
			batch := []vec.Sparse{vectest.Good, tc.Row}
			if tc.Measure != m {
				continue
			} else if tc.Err == "" {
				good = append(good, batch)
				continue
			}
			_, err := c.AppendRows(batch)
			if want := "bayeslsh: append row 1: " + tc.Err; err == nil || err.Error() != want {
				t.Errorf("%v %s: err = %v, want %q", m, tc.Name, err, want)
			}
		}
		if after := c.view.Load(); after != before || c.Rows() != 10 {
			t.Fatalf("%v: failed appends changed the view: %d rows", m, c.Rows())
		}
		if _, err := c.AppendRows(nil); err != nil || c.view.Load() != before {
			t.Fatalf("%v: empty append must be a no-op, got %v", m, err)
		}
		for _, batch := range good {
			if _, err := c.AppendRows(batch); err != nil {
				t.Errorf("%v: well-formed rows %+v refused: %v", m, batch, err)
			}
		}
		if want := 10 + 2*len(good); c.Rows() != want {
			t.Fatalf("%v: %d rows after the well-formed appends, want %d", m, c.Rows(), want)
		}
	}
}

// TestAppendRowsIndexRebuildAmortized drives many small appends and checks
// the epoch-based rebuild policy: rebuilds stay logarithmic-ish in the
// number of appends (geometric growth), not linear, and the candidate index
// still reports candidates correctly after growth.
func TestAppendRowsIndexRebuildAmortized(t *testing.T) {
	full := snapDataset(200)
	p := DefaultParams()
	c := NewCache(prefixOf(full, 20), p, 3)
	at := 20
	for at < full.N() {
		if _, err := c.AppendRows(full.Rows[at : at+10]); err != nil {
			t.Fatal(err)
		}
		at += 10
		// Probing forces the index to catch up with the new rows.
		if _, err := SearchWorkers(prefixOf(full, at), 0.8, c, nil, 2); err != nil {
			t.Fatal(err)
		}
	}
	appends := (full.N() - 20) / 10 // 18
	rebuilds := c.IndexRebuilds()
	if rebuilds == 0 {
		t.Fatal("growing 20 -> 200 rows must trigger at least one rebuild")
	}
	if int(rebuilds) >= appends {
		t.Fatalf("%d rebuilds for %d appends: rebuilds are not amortized", rebuilds, appends)
	}

	// Final sanity: the grown cache still matches a scratch build.
	scratch := NewCache(full, p, 3)
	want, err := SearchWorkers(full, 0.95, scratch, nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	got, err := SearchWorkers(full, 0.95, c, nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Pairs) != len(got.Pairs) {
		t.Fatalf("grown cache found %d pairs at 0.95, scratch %d", len(got.Pairs), len(want.Pairs))
	}
}
