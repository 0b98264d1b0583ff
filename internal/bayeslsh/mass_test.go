package bayeslsh

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"plasmahd/internal/dataset"
	"plasmahd/internal/vec"
)

// massReference is the definition MassAbove must agree with: ProbAbove of
// every cached pair within the first rows rows, summed pair by pair.
func massReference(c *Cache, thresholds []float64, rows int) (est, varsum []float64) {
	est, varsum = make([]float64, len(thresholds)), make([]float64, len(thresholds))
	c.Pairs.Range(func(key uint64, ps PairState) bool {
		if _, j := UnpackKey(key); int(j) < rows {
			for k, t := range thresholds {
				p := c.ProbAbove(ps, t)
				est[k] += p
				varsum[k] += p * (1 - p)
			}
		}
		return true
	})
	return est, varsum
}

// checkMass requires MassAbove within 1e-9 relative of the reference.
func checkMass(t *testing.T, what string, c *Cache, thresholds []float64, rows int) {
	t.Helper()
	est, varsum := c.MassAbove(thresholds, rows)
	wantEst, wantVar := massReference(c, thresholds, rows)
	for k, th := range thresholds {
		for _, v := range []struct {
			name      string
			got, want float64
		}{{"estimate", est[k], wantEst[k]}, {"variance", varsum[k], wantVar[k]}} {
			if math.Abs(v.got-v.want) > 1e-9*math.Max(math.Abs(v.got), math.Abs(v.want)) {
				t.Errorf("%s: t=%v %s = %v, reference %v", what, th, v.name, v.got, v.want)
			}
		}
	}
}

// TestMassAboveMatchesPerPairSum is the differential test of the counted
// curve: after one, two and three probes, with Lite on and off, over cosine
// and Jaccard data, the whole curve — and at the end three row-prefix forms
// of it — agree with the per-pair sum.
func TestMassAboveMatchesPerPairSum(t *testing.T) {
	twitter, err := dataset.NewCorpusScaled("twitter", 300, 3)
	if err != nil {
		t.Fatal(err)
	}
	asJaccard := &vec.Dataset{Name: "twitter-sets", Dim: twitter.Dim, Measure: vec.JaccardSim, Rows: twitter.Rows}
	grid := []float64{0.3, 0.5, 0.7, 0.8, 0.9, 0.95}
	for _, ds := range []*vec.Dataset{wineDS(t), twitter, asJaccard} {
		for _, lite := range []bool{true, false} {
			p := DefaultParams()
			p.Lite = lite
			c := NewCache(ds, p, 42)
			for probes, th := range []float64{0.9, 0.7, 0.5} {
				if _, err := Search(ds, th, c, nil); err != nil {
					t.Fatal(err)
				}
				what := fmt.Sprintf("%s/%v/lite=%v/%d probes", ds.Name, ds.Measure, lite, probes+1)
				if c.Pairs.Len() == 0 {
					t.Fatalf("%s: no cached pairs", what)
				}
				checkMass(t, what, c, grid, c.Rows())
			}
			for _, rows := range []int{2, ds.N() / 3, ds.N() - 1} {
				checkMass(t, fmt.Sprintf("%s/%v/lite=%v/first %d rows", ds.Name, ds.Measure, lite, rows), c, grid, rows)
			}
		}
	}
}

// TestMassAboveEdges covers what a probe never produces but the store and
// the grid allow: unsorted and repeated thresholds, the ends of the
// similarity range, a verified pair sitting exactly on a threshold, states
// with no hashes compared or off the hash schedule, and an empty store.
func TestMassAboveEdges(t *testing.T) {
	c := NewCache(snapDataset(20), DefaultParams(), 1)
	grid := []float64{0.9, -1, 0.5, 1, 0.5, 0.25, 0.7}

	est, varsum := c.MassAbove(grid, c.Rows())
	for k := range grid {
		if est[k] != 0 || varsum[k] != 0 {
			t.Errorf("empty store: t=%v gives %v ± %v", grid[k], est[k], varsum[k])
		}
	}
	if est, varsum := c.MassAbove(nil, c.Rows()); len(est) != 0 || len(varsum) != 0 {
		t.Errorf("empty grid gives %v, %v", est, varsum)
	}

	for i, ps := range []PairState{
		{M: 50, N: 64, Done: true, HasExact: true, Exact: 0.5}, // Exact == t counts
		{M: 50, N: 64, Done: true, HasExact: true, Exact: 0.7}, // float32(0.7) < 0.7 does not
		{M: 60, N: 64, Done: true, HasExact: true, Exact: 1},
		{M: 0, N: 64, Done: true, HasExact: true, Exact: -1},
		{},                             // nothing compared yet
		{M: 20, N: 32}, {M: 20, N: 32}, // one cell, twice
		{M: 0, N: 32}, {M: 32, N: 32},
		{M: 17, N: 37}, {M: 3, N: 1000}, // off the schedule, beyond MaxHashes
		{M: 256, N: 256, Done: true},
	} {
		c.Pairs.Update(PairKey(int32(i), int32(i)+1), ps)
	}
	checkMass(t, "edges", c, grid, c.Rows())
	checkMass(t, "edges/first 5 rows", c, grid, 5)

	est, _ = c.MassAbove([]float64{0.5, 0.7, 0.5}, 5) // the four verified pairs
	if est[0] != 3 || est[1] != 1 || est[2] != 3 {
		t.Errorf("verified pairs at t=0.5, 0.7, 0.5: %v, want [3 1 3]", est)
	}
}

// TestMassAboveOrderFree pins that the result is a function of the store's
// contents alone: the same states written through Update in two orders give
// == sums, which per-pair float accumulation in visit order does not.
func TestMassAboveOrderFree(t *testing.T) {
	ds := wineDS(t)
	probed := NewCache(ds, DefaultParams(), 42)
	for _, th := range []float64{0.9, 0.7} {
		if _, err := Search(ds, th, probed, nil); err != nil {
			t.Fatal(err)
		}
	}
	type entry struct {
		key uint64
		ps  PairState
	}
	var entries []entry
	probed.Pairs.Range(func(key uint64, ps PairState) bool {
		entries = append(entries, entry{key, ps})
		return true
	})
	forward, backward := NewPairStore(), NewPairStore()
	for i := range entries {
		forward.Update(entries[i].key, entries[i].ps)
		r := entries[len(entries)-1-i]
		backward.Update(r.key, r.ps)
	}
	grid := []float64{0.3, 0.5, 0.7, 0.9}
	want, wantVar := probed.MassAbove(grid, probed.Rows())
	for _, store := range []*PairStore{forward, backward} {
		c := NewCache(ds, DefaultParams(), 42)
		c.Pairs = store
		got, gotVar := c.MassAbove(grid, c.Rows())
		for k := range grid {
			if got[k] != want[k] || gotVar[k] != wantVar[k] {
				t.Errorf("t=%v: %v ± %v, want %v ± %v", grid[k], got[k], gotVar[k], want[k], wantVar[k])
			}
		}
	}
}

func TestParamsValidate(t *testing.T) {
	if err := DefaultParams().Validate(); err != nil {
		t.Fatalf("defaults: %v", err)
	}
	set := func(f func(*Params)) Params {
		p := DefaultParams()
		f(&p)
		return p
	}
	for _, tc := range []struct {
		p     Params
		field string // "" = valid
	}{
		{set(func(p *Params) { p.Step = 0 }), "Step"},
		{set(func(p *Params) { p.Step = -1 }), "Step"},
		{set(func(p *Params) { p.Step = 257 }), "Step"},
		{set(func(p *Params) { p.MaxHashes = 0 }), "MaxHashes"},
		{set(func(p *Params) { p.MaxHashes = -5 }), "MaxHashes"},
		{set(func(p *Params) { p.MaxHashes = 1 << 30; p.Step = 1 << 29 }), "MaxHashes"},
		{set(func(p *Params) { p.MaxHashes, p.Step = 4096, 1 }), "schedule"},
		{set(func(p *Params) { p.MaxHashes, p.Step = 8192, 1 }), "schedule"},
		{set(func(p *Params) { p.Epsilon = -0.1 }), "Epsilon"},
		{set(func(p *Params) { p.Epsilon = math.NaN() }), "Epsilon"},
		{set(func(p *Params) { p.Delta = math.Inf(1) }), "Delta"},
		{set(func(p *Params) { p.Gamma = 1.5 }), "Gamma"},
		{set(func(p *Params) { p.MaxDFFrac = math.NaN() }), "MaxDFFrac"},
		{set(func(p *Params) { p.MaxDFFrac = math.Inf(1) }), "MaxDFFrac"},
		{set(func(p *Params) { p.MaxDFFrac = math.Inf(-1) }), "MaxDFFrac"},
		{set(func(p *Params) { p.MaxDFFrac = 0 }), ""},
		{set(func(p *Params) { p.MaxDFFrac = 7 }), ""},
		{set(func(p *Params) { p.Epsilon, p.Delta, p.Gamma = 0, 1, 0 }), ""},
		{set(func(p *Params) { p.MaxHashes, p.Step = 1, 1 }), ""},
		{set(func(p *Params) { p.MaxHashes, p.Step = 250, 32 }), ""},
		{set(func(p *Params) { p.MaxHashes, p.Step = 512, 1 }), ""},
		{set(func(p *Params) { p.MaxHashes, p.Step = 1<<17, 1<<17 }), ""},
		{set(func(p *Params) { p.Workers = -3 }), ""},
	} {
		err := tc.p.Validate()
		switch {
		case tc.field == "" && err != nil:
			t.Errorf("%+v: %v", tc.p, err)
		case tc.field != "" && (err == nil || !strings.Contains(err.Error(), tc.field)):
			t.Errorf("%+v: err = %v, want one naming %s", tc.p, err, tc.field)
		}
	}
	// The cells Validate bounds are the cells NewCache builds.
	for _, sched := range [][2]int{{256, 32}, {250, 32}, {64, 64}, {7, 3}, {9, 1}} {
		p := set(func(p *Params) { p.MaxHashes, p.Step = sched[0], sched[1] })
		built := int64(0)
		for _, row := range NewCache(snapDataset(2), p, 1).conc {
			built += int64(len(row))
		}
		if got := p.scheduleCells(); got != built {
			t.Errorf("MaxHashes %d Step %d: scheduleCells = %d, concentration table has %d", sched[0], sched[1], got, built)
		}
	}
}
