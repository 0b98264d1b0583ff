package bayeslsh

import (
	"bytes"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"slices"
	"testing"

	"plasmahd/internal/vec"
)

// candSet returns the j of each candidate, ascending.
func candSet(cands []candidate) []int32 {
	js := make([]int32, len(cands))
	for k, cd := range cands {
		js[k] = cd.j
	}
	slices.Sort(js)
	return js
}

// skewedSparseDS is a seeded Jaccard corpus of 6-feature rows, half of the
// draws from a 4-feature head: head features sit near the stop-word cap
// ⌊n/2⌋, so rows cross it both ways.
func skewedSparseDS(rng *rand.Rand, n, dim int) *vec.Dataset {
	ds := &vec.Dataset{Name: "skewed", Dim: dim, Measure: vec.JaccardSim}
	for i := 0; i < n; i++ {
		m := map[int32]float64{}
		for len(m) < 6 {
			f := rng.Intn(dim)
			if rng.Intn(2) == 0 {
				f = rng.Intn(4)
			}
			m[int32(f)] = 1
		}
		ds.Rows = append(ds.Rows, vec.FromMap(m))
	}
	return ds
}

// liveFeatures is the brute-force definition the band is derived from:
// feature f of row i is live under cap iff at most cap rows before i carry
// it.
func liveFeatures(ds *vec.Dataset, i int, cap int32) map[int32]bool {
	live := map[int32]bool{}
	for _, f := range ds.Rows[i].Indices {
		c := int32(0)
		for _, r := range ds.Rows[:i] {
			if _, ok := slices.BinarySearch(r.Indices, f); ok {
				c++
			}
		}
		if c <= cap {
			live[f] = true
		}
	}
	return live
}

// TestBandIsExactAndTight is the property the walk rests on. For every row
// and every cap in [2, n], a cap the row's band holds generates the same
// candidate set as the index's own cap, by brute force over an index whose
// cap is overridden; and the band is tight: one below its floor and at its
// ceiling the set of live features is a different one. Indexes come both
// from one CSR build and from a CSR build extended by a tail, so both
// posting layouts are searched.
func TestBandIsExactAndTight(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	var missed, finite int
	for _, shape := range []struct{ n, dim int }{{60, 12}, {90, 30}, {120, 60}} {
		ds := skewedSparseDS(rng, shape.n, shape.dim)
		for _, layout := range []string{"csr", "csr+tail"} {
			ix := buildCandIndex(ds.Dim, ds.Rows, 0.5)
			if layout == "csr+tail" {
				ix = buildCandIndex(ds.Dim, ds.Rows[:shape.n/2], 0.5).extend(ds.Dim, ds.Rows, shape.n, 0.5)
			}
			sc := &probeScratch{seen: make([]int64, shape.n)}
			for i := 0; i < shape.n; i++ {
				what := fmt.Sprintf("n=%d dim=%d %s row %d", shape.n, shape.dim, layout, i)
				cands, b := ix.appendRow(int32(i), ds.Rows[i].Indices, sc, nil)
				if !b.has(ix.maxDF) {
					t.Fatalf("%s: band [%d, %d) misses the cap %d it was generated under", what, b.lo, b.hi, ix.maxDF)
				}
				want := candSet(cands)
				for cap := int32(2); cap <= int32(shape.n); cap++ {
					at := *ix
					at.maxDF = cap
					got, _ := at.appendRow(int32(i), ds.Rows[i].Indices, sc, nil)
					if !b.has(cap) {
						missed++
						continue
					}
					if !slices.Equal(candSet(got), want) {
						t.Fatalf("%s: band [%d, %d) holds cap %d, whose candidates %v differ from %v at cap %d",
							what, b.lo, b.hi, cap, candSet(got), want, ix.maxDF)
					}
				}
				live := liveFeatures(ds, i, ix.maxDF)
				if len(live) > 0 && maps.Equal(liveFeatures(ds, i, b.lo-1), live) {
					t.Errorf("%s: band floor %d is not tight: cap %d keeps the same live features", what, b.lo, b.lo-1)
				}
				if b.hi < math.MaxInt32 {
					finite++
					if maps.Equal(liveFeatures(ds, i, b.hi), live) {
						t.Errorf("%s: band ceiling %d is not tight: it keeps the same live features", what, b.hi)
					}
				}
			}
		}
	}
	if missed == 0 || finite == 0 {
		t.Fatalf("vacuous shapes: %d (row, cap) pairs outside a band, %d rows with a stop-worded feature", missed, finite)
	}
}

// rowsWithCandidates counts the rows of ds the candidate index gives at
// least one candidate.
func rowsWithCandidates(ds *vec.Dataset, p Params) int {
	ix := buildCandIndex(ds.Dim, ds.Rows, p.MaxDFFrac)
	sc := &probeScratch{seen: make([]int64, ds.N())}
	rows := 0
	for i := range ds.Rows {
		if cands, _ := ix.appendRow(int32(i), ds.Rows[i].Indices, sc, nil); len(cands) > 0 {
			rows++
		}
	}
	return rows
}

// TestRowsWalked pins when a probe walks a row's run: a repeat walks every
// row that has candidates; a restored cache walks none on its first probe,
// which records the runs, and every such row on its second; and a pair
// inserted into row i by PairStore.Update, not a candidate of i, stops the
// walk of row i. Walked or not, the answers are the same.
func TestRowsWalked(t *testing.T) {
	for _, ds := range []*vec.Dataset{snapDataset(60), skewedSparseDS(rand.New(rand.NewSource(19)), 120, 60)} {
		t.Run(ds.Name, func(t *testing.T) {
			p := DefaultParams()
			want := rowsWithCandidates(ds, p)
			c := NewCache(ds, p, 3)
			cold := mustSearch(t, ds, 0.7, c)
			if cold.RowsWalked != 0 {
				t.Fatalf("cold probe walked %d rows", cold.RowsWalked)
			}
			snap := storeBytes(t, c)
			repeat := mustSearch(t, ds, 0.7, c)
			if repeat.RowsWalked != want || want == 0 {
				t.Fatalf("repeat walked %d rows, %d have candidates", repeat.RowsWalked, want)
			}

			restored, err := DecodeSnapshot(bytes.NewReader(snap))
			if err != nil {
				t.Fatal(err)
			}
			for k, wantWalked := range []int{0, want} {
				res := mustSearch(t, ds, 0.7, restored)
				if res.RowsWalked != wantWalked {
					t.Errorf("restored cache probe %d walked %d rows, want %d", k+1, res.RowsWalked, wantWalked)
				}
				sameResults(t, []*Result{repeat}, []*Result{res})
			}

			// Pick the last row that has candidates but not every row below
			// it, and a j < i that is not one of them.
			runs, i := c.Pairs.loaded(), int32(ds.N()-1)
			for i > 0 && (len(runs[i].js) == 0 || len(runs[i].js) == int(i)) {
				i--
			}
			if i == 0 {
				t.Fatal("every row with candidates has all rows below it as candidates")
			}
			j := int32(0)
			for runs[i].js[j] == j {
				j++
			}
			c.Pairs.Update(PairKey(j, i), PairState{M: 1, N: int32(p.Step)})
			for k := 0; k < 2; k++ {
				res := mustSearch(t, ds, 0.7, c)
				if res.RowsWalked != want-1 {
					t.Errorf("probe %d after an insert into row %d walked %d rows, want %d", k+1, i, res.RowsWalked, want-1)
				}
				sameResults(t, []*Result{repeat}, []*Result{res})
			}
		})
	}
}

// switchDataset is a Jaccard corpus built to move the stop-word cap under a
// growing cache: 40 rows of 24 of 40 features — dense, so resolveMaxDF
// disables the cap — then rows of 6 features drawn from a skewed head, so
// the average row shortens until the cap switches on at ⌊n/2⌋ and features
// cross it in both directions as rows are appended.
func switchDataset(rng *rand.Rand, n int) *vec.Dataset {
	ds := &vec.Dataset{Name: "switch", Dim: 40, Measure: vec.JaccardSim}
	for i := 0; i < n; i++ {
		m := map[int32]float64{}
		want := 6
		if i < 40 {
			want = 24
		}
		for len(m) < want {
			f := rng.Intn(40)
			if rng.Intn(2) == 0 {
				f = rng.Intn(8)
			}
			m[int32(f)] = 1
		}
		ds.Rows = append(ds.Rows, vec.FromMap(m))
	}
	return ds
}

// TestGrownWalksMatchFromScratch is grown == from-scratch with probes
// between the appends, across resolveMaxDF's dense switch and stop-word cap
// crossings. The grown cache keeps its runs and bands across every append,
// so each first probe after one walks the rows whose band still holds the
// new cap and regenerates the rest. Its twin is built from scratch over the
// same rows and handed the grown cache's evidence, pair by pair, with no
// band. Every probe must agree on pairs and counters, and the stores on
// every byte.
func TestGrownWalksMatchFromScratch(t *testing.T) {
	forceParallel(t)
	full := switchDataset(rand.New(rand.NewSource(23)), 140)
	stops := []int{30, 45, 60, 80, 100, 140}
	for _, w := range []int{1, 3} {
		t.Run(fmt.Sprintf("workers=%d", w), func(t *testing.T) {
			p := DefaultParams()
			p.Workers = w
			grown := NewCache(prefixOf(full, stops[0]), p, 7)
			var dense, sparse, walkedAcross, crossed bool
			lastWalked := 0
			for _, stop := range stops {
				if stop > grown.Rows() {
					if _, err := grown.AppendRows(full.Rows[grown.Rows():stop]); err != nil {
						t.Fatal(err)
					}
				}
				view := prefixOf(full, stop)
				scratch := NewCache(view, p, 7)
				grown.Pairs.Range(func(k uint64, ps PairState) bool {
					scratch.Pairs.Update(k, ps)
					return true
				})
				for step, th := range []float64{0.6, 0.4, 0.6} {
					got := mustSearch(t, view, th, grown)
					sameResults(t, []*Result{mustSearch(t, view, th, scratch)}, []*Result{got})
					if step == 0 && stop > stops[0] {
						walkedAcross = walkedAcross || got.RowsWalked > 0
						crossed = crossed || got.RowsWalked < lastWalked
					}
					lastWalked = got.RowsWalked
				}
				if !bytes.Equal(storeBytes(t, grown), storeBytes(t, scratch)) {
					t.Fatalf("%d rows: grown store differs from the from-scratch one", stop)
				}
				maxDF := grown.idx.Load().maxDF
				dense = dense || maxDF == int32(stop)
				sparse = sparse || maxDF < int32(stop)
			}
			if !dense || !sparse || !walkedAcross || !crossed {
				t.Fatalf("vacuous: dense cap seen %v, sparse cap seen %v, walk across an append %v, band crossed %v",
					dense, sparse, walkedAcross, crossed)
			}
		})
	}
}

// probeTrace runs one probe on the given number of workers and returns it
// with its progress trace, a (rows processed, pairs so far) pair per row.
func probeTrace(t *testing.T, ds *vec.Dataset, th float64, c *Cache, workers int) (*Result, [][2]int) {
	t.Helper()
	var trace [][2]int
	res, err := SearchWorkers(ds, th, c, func(done, _, above int) {
		trace = append(trace, [2]int{done, above})
	}, workers)
	if err != nil {
		t.Fatal(err)
	}
	return res, trace
}

// TestWalkedMatchesGenerated is walked == generated, hit for hit. A decoded
// snapshot's runs carry no band, so a copy decoded before each probe
// generates every row from the candidate index and sends every candidate to
// evaluation, while the cache walks its runs and answers its hits inside
// the walk. After a 0.8 probe, the 0.8 repeat walks rows of hits only, and
// the 0.7 and 0.6 probes walk rows that mix hits with pairs resumed from
// their stored state. Cache and copy must agree on the pairs, every counter
// and the progress trace, and leave stores that encode to the same bytes.
func TestWalkedMatchesGenerated(t *testing.T) {
	forceParallel(t)
	for _, ds := range []*vec.Dataset{snapDataset(60), skewedSparseDS(rand.New(rand.NewSource(29)), 120, 60)} {
		for _, w := range []int{1, 2, 8} {
			t.Run(fmt.Sprintf("%s/workers=%d", ds.Name, w), func(t *testing.T) {
				p := DefaultParams()
				want := rowsWithCandidates(ds, p)
				c := NewCache(ds, p, 5)
				probeTrace(t, ds, 0.8, c, w)
				mixed := false
				for _, th := range []float64{0.8, 0.7, 0.6} {
					generating, err := DecodeSnapshot(bytes.NewReader(storeBytes(t, c)))
					if err != nil {
						t.Fatal(err)
					}
					walked, walkedTrace := probeTrace(t, ds, th, c, w)
					generated, generatedTrace := probeTrace(t, ds, th, generating, w)
					if walked.RowsWalked != want || generated.RowsWalked != 0 {
						t.Fatalf("t=%v: walked %d and %d rows, want %d and 0", th, walked.RowsWalked, generated.RowsWalked, want)
					}
					sameResults(t, []*Result{generated}, []*Result{walked})
					if !slices.Equal(walkedTrace, generatedTrace) {
						t.Fatalf("t=%v: progress traces differ:\nwalked    %v\ngenerated %v", th, walkedTrace, generatedTrace)
					}
					if !bytes.Equal(storeBytes(t, c), storeBytes(t, generating)) {
						t.Fatalf("t=%v: the walked store differs from the generated one", th)
					}
					mixed = mixed || (walked.CacheHits > 0 && walked.Candidates > 0)
				}
				if !mixed {
					t.Fatal("vacuous: no walked probe both answered hits and resumed pairs")
				}
			})
		}
	}
}
