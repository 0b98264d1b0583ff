package bayeslsh

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"plasmahd/internal/dataset"
	"plasmahd/internal/vec"
)

// hdlssDataset is a seeded high-dimension, low-sample-size corpus: 30 base
// rows of 300 features over d = 50 000, each followed by two near-duplicates
// that redraw 1–40 % of the base's features, so true similarities spread from
// ≈ 0.4 to ≈ 0.98. A quarter of every row's features come from a shared
// 200-feature head, which makes unrelated rows candidates of each other at
// one concentrated, low similarity — the d ≫ n regime (Terada; Yata &
// Aoshima) where most candidates sit far below every bound and pruning is
// most likely to misfire. The same rows serve as sets (Jaccard) and as
// normalized weighted vectors (cosine).
func hdlssDataset(measure vec.Measure) *vec.Dataset {
	const dim, head, nnz = 50000, 200, 300
	rng := rand.New(rand.NewSource(5))
	fill := func(row map[int32]float64) map[int32]float64 {
		for len(row) < nnz {
			f := head + rng.Intn(dim-head)
			if rng.Intn(4) == 0 {
				f = rng.Intn(head)
			}
			row[int32(f)] = 1 + rng.ExpFloat64()
		}
		return row
	}
	ds := &vec.Dataset{Name: "hdlss", Dim: dim, Measure: measure}
	for b := 0; b < 30; b++ {
		base := vec.FromMap(fill(map[int32]float64{}))
		ds.Rows = append(ds.Rows, base)
		for dup := 0; dup < 2; dup++ {
			redraw := 0.01 + 0.39*rng.Float64()
			row := map[int32]float64{}
			for k, f := range base.Indices {
				if rng.Float64() >= redraw {
					row[f] = base.Values[k]
				}
			}
			ds.Rows = append(ds.Rows, vec.FromMap(fill(row)))
		}
	}
	if measure == vec.CosineSim {
		ds.NormalizeRows()
	}
	return ds
}

// above filters brute-force pairs (Est holds the true similarity) to those at
// or above t.
func above(truth []Pair, t float64) []Pair {
	var out []Pair
	for _, pr := range truth {
		if pr.Est >= t {
			out = append(out, pr)
		}
	}
	return out
}

// TestOracle holds the engine to what ε, δ and γ promise, against brute
// force, on a dense table, a sparse corpus under both measures and an HDLSS
// set under both measures × thresholds 0.5/0.7/0.9 × Lite on and off. Every
// probe is the last of a deeper-then-shallower ladder (0.95, t, t) — the case
// re-prune-first changes — and recall and precision are pooled over four
// sketch seeds.
//
// Lite verifies survivors exactly, so its answer is compared with Exact(t):
// precision ≥ 0.99 (float32 roundings at t itself) and recall ≥ 1 − 2ε less
// three standard errors of a recall measured on the pooled true pairs — the
// floor bench/verify.go uses. Without Lite an estimate is within δ of the
// truth with probability 1 − γ, so recall is held to the same floor against
// the pairs clearly above, Exact(t+δ), and at least 1 − 2γ of the returned
// pairs must lie in Exact(t−2δ). Cases with fewer than 20 pooled true pairs
// check precision only.
//
// What the recall floor checks is pooled recall ≥ 1 − 2ε less three
// standard errors, not a per-pair miss probability of at most ε: Eq 2.1 is
// tested afresh at each schedule point, so a pair sitting exactly at t is
// pruned 10–12 % of the time (a dynamic program over the binomial match path
// at p(t); ROADMAP.md, measurement (c)). The floor holds because most pooled
// true pairs sit well above t, where the prune bounds rarely reach them, so
// the pooled miss rate stays at or below about ε (readings below).
//
// False-failure odds: the figures below assume the ε contract — a per-pair
// miss probability of at most ε = 0.03 — which the α-spending prune bounds of
// ROADMAP.md item 2 are to make true; today only pairs well above t meet it.
// The floor sits at 2ε plus three standard errors. Taking misses as
// independent across pairs (they are pooled over four hash families), the
// smallest case here (24 pooled pairs, five misses needed) fails with
// probability 6·10⁻⁴ and a case of 100 pairs or more below 10⁻⁶; 23 cases are
// checked for recall, pooling 24 to 25 164 pairs, so one re-roll of the
// evidence (a new sketch kernel, other seeds) trips some case with
// probability near 10⁻³. The test itself is seeded and deterministic.
// Readings when written: Lite recall 0.964–0.995 against floors 0.80–0.94,
// non-Lite 0.981–1.000 against 0.80–0.94, loose precision ≥ 0.947; 1.3 s.
func TestOracle(t *testing.T) {
	twitter, err := dataset.NewCorpusScaled("twitter", 300, 3)
	if err != nil {
		t.Fatal(err)
	}
	asSets := &vec.Dataset{Name: "twitter-sets", Dim: twitter.Dim, Measure: vec.JaccardSim, Rows: twitter.Rows}
	seeds := []int64{1, 2, 3, 4}
	base := DefaultParams()
	checked := 0
	for _, ds := range []*vec.Dataset{wineDS(t), twitter, asSets, hdlssDataset(vec.CosineSim), hdlssDataset(vec.JaccardSim)} {
		sims := Exact(ds, 0.5-2*base.Delta)
		for _, lite := range []bool{true, false} {
			p := base
			p.Lite = lite
			caches := make([]*Cache, len(seeds))
			for _, th := range []float64{0.9, 0.7, 0.5} {
				what := fmt.Sprintf("%s/%v/lite=%v/t=%v", ds.Name, ds.Measure, lite, th)
				strict, loose := above(sims, th), above(sims, th)
				if !lite {
					strict, loose = above(sims, th+p.Delta), above(sims, th-2*p.Delta)
				}
				var found, inLoose, returned int
				for k, seed := range seeds {
					// Descending thresholds on one cache per seed: 0.95, t, t on
					// the store an earlier, higher t left is the same ladder
					// continued, and saves re-sketching.
					if caches[k] == nil {
						caches[k] = NewCache(ds, p, seed)
						mustSearch(t, ds, 0.95, caches[k])
					}
					mustSearch(t, ds, th, caches[k])
					res := mustSearch(t, ds, th, caches[k])
					if res.HashesCompared != 0 {
						t.Errorf("%s seed %d: repeat compared %d hashes", what, seed, res.HashesCompared)
					}
					r, _ := RecallPrecision(res.Pairs, strict)
					_, pr := RecallPrecision(res.Pairs, loose)
					found += int(math.Round(r * float64(len(strict))))
					inLoose += int(math.Round(pr * float64(len(res.Pairs))))
					returned += len(res.Pairs)
				}
				precision, wantPrecision := 1.0, 0.99
				if returned > 0 {
					precision = float64(inLoose) / float64(returned)
				}
				if !lite {
					wantPrecision = 1 - 2*p.Gamma
				}
				if precision < wantPrecision {
					t.Errorf("%s: precision %.4f over %d returned pairs, want ≥ %.2f", what, precision, returned, wantPrecision)
				}
				pooled := len(seeds) * len(strict)
				if pooled < 20 {
					t.Logf("%s: %d pooled true pairs, precision %.4f only", what, pooled, precision)
					continue
				}
				checked++
				miss := 2 * p.Epsilon
				floor := 1 - miss - 3*math.Sqrt(miss*(1-miss)/float64(pooled))
				recall := float64(found) / float64(pooled)
				t.Logf("%s: recall %.4f (floor %.3f, %d pooled pairs), precision %.4f", what, recall, floor, pooled, precision)
				if recall < floor {
					t.Errorf("%s: recall %.4f over %d pooled true pairs, want ≥ %.3f", what, recall, pooled, floor)
				}
			}
		}
	}
	if checked < 20 {
		t.Errorf("only %d of 30 cases had enough true pairs for a recall check", checked)
	}
}
