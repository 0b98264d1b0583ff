package lam

import (
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"testing/quick"

	"plasmahd/internal/dataset"
	"plasmahd/internal/itemset"
)

// table41 is the worked example of Table 4.1 (trans ids become row indices
// 0..7 in listing order: 23, 102, 55, 204, 13, 64, 43, 431).
func table41() *itemset.DB {
	return itemset.FromRows([][]int{
		{6, 10, 5, 12, 15, 1, 2, 3},             // 23
		{1, 2, 3, 20},                           // 102
		{2, 3, 10, 12, 1, 5, 6, 15},             // 55
		{1, 7, 8, 9, 3},                         // 204
		{1, 2, 3, 8},                            // 13
		{1, 2, 3, 5, 6, 10, 12, 15},             // 64
		{1, 2, 5, 10, 22, 31, 8, 23, 36, 6},     // 43
		{1, 2, 5, 10, 21, 31, 67, 8, 23, 36, 6}, // 431
	})
}

func TestWorkedExamplePotentialList(t *testing.T) {
	// Table 4.2: the potential itemset list with Area utility must be
	//   {1,2,3,5,6,10,12,15} util 14, {1,2,5,6,8,10,23,31,36} util 8,
	//   {1,2,3} util 8, {1,2} util 6.
	db := table41()
	root := buildTrie(db.Rows, []int{0, 1, 2, 3, 4, 5, 6, 7})
	pots := generatePotentials(root, db.Rows, Area)
	if len(pots) != 4 {
		t.Fatalf("potential list has %d entries, want 4: %+v", len(pots), pots)
	}
	wantItems := [][]int32{
		{1, 2, 3, 5, 6, 10, 12, 15},
		{1, 2, 5, 6, 8, 10, 23, 31, 36},
		{1, 2, 3},
		{1, 2},
	}
	wantUtil := []float64{14, 8, 8, 6}
	wantFreq := []int{3, 2, 5, 7}
	for i := range wantItems {
		if !reflect.DeepEqual(pots[i].Items, wantItems[i]) {
			t.Errorf("potential %d items %v want %v", i, pots[i].Items, wantItems[i])
		}
		if pots[i].Utility != wantUtil[i] {
			t.Errorf("potential %d utility %v want %v", i, pots[i].Utility, wantUtil[i])
		}
		if len(pots[i].Tids) != wantFreq[i] {
			t.Errorf("potential %d freq %d want %d", i, len(pots[i].Tids), wantFreq[i])
		}
	}
}

func TestWorkedExampleConsumption(t *testing.T) {
	db := table41()
	res := Mine(db, Params{Hashes: 8, Chunk: 100, Passes: 1, Utility: Area, Workers: 1, Seed: 3})
	// The top pattern must be consumed in the three identical transactions.
	if len(res.Patterns) == 0 {
		t.Fatal("no patterns consumed")
	}
	found := false
	for _, p := range res.Patterns {
		if reflect.DeepEqual(p.Items, []int32{1, 2, 3, 5, 6, 10, 12, 15}) && p.Freq == 3 {
			found = true
		}
	}
	if !found {
		t.Errorf("top Table 4.2 pattern not consumed: %+v", res.Patterns)
	}
	if res.Ratio <= 1 {
		t.Errorf("ratio %v should exceed 1", res.Ratio)
	}
}

// fig42 is the counter-example dataset of Figure 4.2.
func fig42() *itemset.DB {
	rows := [][]int{
		{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12},
		{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12},
		{10, 11, 12},
		{10, 11, 12},
		{10, 11, 12},
		{10, 11, 12},
	}
	return itemset.FromRows(rows)
}

func TestFig42AreaPicksLocalOptimal(t *testing.T) {
	// With Area, the full 12-itemset ((12-1)(2-1)=11) outranks {10,11,12}
	// ((3-1)(6-1)=10) — the suboptimal LocalOptimal choice of §4.4.2.
	db := fig42()
	root := buildTrie(db.Rows, []int{0, 1, 2, 3, 4, 5})
	pots := generatePotentials(root, db.Rows, Area)
	if len(pots) < 2 {
		t.Fatalf("potentials: %+v", pots)
	}
	if len(pots[0].Items) != 12 {
		t.Errorf("Area should rank the 12-itemset first, got %v", pots[0].Items)
	}
	// With RC, {10,11,12} ranks first (RC = 4.5 vs 2.0).
	root2 := buildTrie(db.Rows, []int{0, 1, 2, 3, 4, 5})
	pots2 := generatePotentials(root2, db.Rows, RC)
	if len(pots2[0].Items) != 3 {
		t.Errorf("RC should rank {10,11,12} first, got %v", pots2[0].Items)
	}
	if pots2[0].Utility != 4.5 {
		t.Errorf("RC utility %v want 4.5", pots2[0].Utility)
	}
}

func TestFig42IterationRecoversOptimal(t *testing.T) {
	// RC consumes {10,11,12} first; the second pass compresses the leftover
	// {1..9}+code rows, beating single-pass Area (the optimal solution the
	// greedy LocalOptimal missed).
	area1 := Mine(fig42(), Params{Hashes: 8, Chunk: 100, Passes: 1, Utility: Area, Workers: 1, Seed: 3})
	rc2 := Mine(fig42(), Params{Hashes: 8, Chunk: 100, Passes: 2, Utility: RC, Workers: 1, Seed: 3})
	if rc2.CompressedSize >= area1.CompressedSize {
		t.Errorf("RC+2 passes (%d tokens) should beat Area 1 pass (%d tokens)",
			rc2.CompressedSize, area1.CompressedSize)
	}
}

func TestLocalize(t *testing.T) {
	rows := [][]int32{
		{1, 2, 3}, {1, 2, 3}, {1, 2, 3},
		{7, 8, 9}, {7, 8, 9},
		{20, 21},
	}
	parts := Localize(rows, 8, 2, 5)
	// Every row appears in exactly one partition.
	seen := map[int]int{}
	for _, p := range parts {
		for _, r := range p {
			seen[r]++
		}
	}
	if len(seen) != len(rows) {
		t.Fatalf("partition coverage: %v", seen)
	}
	for r, c := range seen {
		if c != 1 {
			t.Fatalf("row %d in %d partitions", r, c)
		}
	}
	// Identical rows must share a partition (identical signatures).
	inSame := func(a, b int) bool {
		for _, p := range parts {
			hasA, hasB := false, false
			for _, r := range p {
				if r == a {
					hasA = true
				}
				if r == b {
					hasB = true
				}
			}
			if hasA || hasB {
				return hasA && hasB
			}
		}
		return false
	}
	if !inSame(3, 4) {
		t.Error("identical rows 3,4 should share a partition")
	}
	if Localize(nil, 8, 100, 1) != nil {
		t.Error("empty input")
	}
}

func TestMineLossless(t *testing.T) {
	// Decompressing every original row must reproduce it exactly — for
	// multiple datasets, utilities, and pass counts.
	for _, name := range []string{"mushroom", "kosarak", "tictactoe"} {
		tr, err := dataset.NewTransactionsScaled(name, 250, 4)
		if err != nil {
			t.Fatal(err)
		}
		db := itemset.FromRows(tr.Rows)
		for _, u := range []Utility{Area, RC} {
			for _, passes := range []int{1, 3} {
				res := Mine(db, Params{Hashes: 16, Chunk: 100, Passes: passes, Utility: u, Workers: 1, Seed: 9})
				for i := range db.Rows {
					got, err := res.Decompress(i)
					if err != nil {
						t.Fatalf("%s/%v/%d row %d: %v", name, u, passes, i, err)
					}
					if !reflect.DeepEqual(got, db.Rows[i]) {
						t.Fatalf("%s/%v/%d row %d: decompressed %v want %v",
							name, u, passes, i, got, db.Rows[i])
					}
				}
				if res.Ratio < 1 {
					t.Errorf("%s/%v/%d: ratio %v below 1", name, u, passes, res.Ratio)
				}
			}
		}
	}
}

func TestMineMorePassesNeverWorse(t *testing.T) {
	tr, err := dataset.NewTransactionsScaled("mushroom", 300, 4)
	if err != nil {
		t.Fatal(err)
	}
	db := itemset.FromRows(tr.Rows)
	res := Mine(db, Params{Hashes: 16, Chunk: 200, Passes: 5, Utility: Area, Workers: 1, Seed: 2})
	if len(res.PassRatios) != 5 {
		t.Fatalf("pass ratios %v", res.PassRatios)
	}
	for i := 1; i < len(res.PassRatios); i++ {
		if res.PassRatios[i] < res.PassRatios[i-1]-1e-9 {
			t.Errorf("pass %d ratio %v worse than pass %d's %v",
				i+1, res.PassRatios[i], i, res.PassRatios[i-1])
		}
	}
	if res.Ratio != res.PassRatios[4] {
		t.Error("final ratio must equal last pass ratio")
	}
}

func TestPLAMParallelMatchesSerial(t *testing.T) {
	// Force real parallelism: on a 1-CPU container the pool would otherwise
	// run its workers one after another and hide any schedule dependence.
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	tr, err := dataset.NewTransactionsScaled("mushroom", 400, 4)
	if err != nil {
		t.Fatal(err)
	}
	db := itemset.FromRows(tr.Rows)
	serial := Mine(db, Params{Hashes: 16, Chunk: 50, Passes: 2, Utility: Area, Workers: 1, Seed: 2})
	parallel := Mine(db, Params{Hashes: 16, Chunk: 50, Passes: 2, Utility: Area, Workers: 4, Seed: 2})
	// Partitions are independent and codes are numbered in partition order,
	// so the whole result — not just its size — must be identical
	// regardless of worker count (§4.4.4 loses only across machines).
	if serial.CompressedSize != parallel.CompressedSize {
		t.Errorf("serial %d tokens vs parallel %d", serial.CompressedSize, parallel.CompressedSize)
	}
	if !reflect.DeepEqual(serial.Patterns, parallel.Patterns) {
		t.Errorf("patterns differ: serial %d, parallel %d", len(serial.Patterns), len(parallel.Patterns))
	}
	if !reflect.DeepEqual(serial.Rows, parallel.Rows) {
		t.Error("rewritten rows differ between serial and parallel runs")
	}
	// And parallel output must still be lossless.
	for i := range db.Rows {
		got, err := parallel.Decompress(i)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, db.Rows[i]) {
			t.Fatalf("parallel decompress mismatch row %d", i)
		}
	}
}

func TestMineFindsLongPatterns(t *testing.T) {
	// Web-graph stand-ins have near-biclique spam blocks: LAM must find
	// long patterns (Fig 4.11's headline result).
	g, err := dataset.NewWebGraphScaled("eu2005", 1200, 4)
	if err != nil {
		t.Fatal(err)
	}
	db := itemset.FromRows(g.Rows)
	res := Mine(db, DefaultParams())
	maxLen := 0
	for _, p := range res.Patterns {
		if len(p.Items) > maxLen {
			maxLen = len(p.Items)
		}
	}
	if maxLen < 20 {
		t.Errorf("longest LAM pattern %d items; expected long spam-block patterns", maxLen)
	}
	if res.Ratio <= 1.05 {
		t.Errorf("web graph ratio %v", res.Ratio)
	}
}

func TestMaxDereferenceDepth(t *testing.T) {
	res := Mine(fig42(), Params{Hashes: 8, Chunk: 100, Passes: 2, Utility: RC, Workers: 1, Seed: 3})
	d := res.MaxDereferenceDepth()
	if d < 2 {
		t.Errorf("two-pass RC on fig42 should nest codes: depth %d", d)
	}
	flat := Mine(fig42(), Params{Hashes: 8, Chunk: 100, Passes: 1, Utility: Area, Workers: 1, Seed: 3})
	if flat.MaxDereferenceDepth() != 1 {
		t.Errorf("single-pass depth %d want 1", flat.MaxDereferenceDepth())
	}
}

func TestLengthCompressionCurve(t *testing.T) {
	tr, _ := dataset.NewTransactionsScaled("mushroom", 200, 4)
	res := Mine(itemset.FromRows(tr.Rows), DefaultParams())
	lengths, cum := res.LengthCompressionCurve()
	if len(lengths) != len(cum) || len(lengths) == 0 {
		t.Fatalf("curve shape: %v %v", lengths, cum)
	}
	for i := 1; i < len(cum); i++ {
		if cum[i] < cum[i-1] {
			t.Fatal("cumulative savings must be nondecreasing")
		}
		if lengths[i] <= lengths[i-1] {
			t.Fatal("lengths must ascend")
		}
	}
}

func TestDecompressErrors(t *testing.T) {
	res := Mine(fig42(), DefaultParams())
	if _, err := res.Decompress(-1); err == nil {
		t.Error("negative row must error")
	}
	if _, err := res.Decompress(10_000); err == nil {
		t.Error("out-of-range row must error")
	}
}

func TestClassifier(t *testing.T) {
	tr, err := dataset.NewTransactionsScaled("mushroom", 400, 4)
	if err != nil {
		t.Fatal(err)
	}
	db := itemset.FromRows(tr.Rows)
	p := Params{Hashes: 16, Chunk: 200, Passes: 2, Utility: Area, Workers: 1, Seed: 5}
	acc := CrossValidate(db, tr.Labels, p, 5)
	// Two balanced classes with class-specific planted patterns: must beat
	// the 50% majority baseline comfortably.
	if acc < 0.65 {
		t.Errorf("classification accuracy %.3f; want > 0.65", acc)
	}
}

func TestClassifierDefaultClass(t *testing.T) {
	db := itemset.FromRows([][]int{{1, 2}, {1, 2}, {1, 2}, {3, 4}})
	labels := []int{0, 0, 0, 1}
	clf := TrainClassifier(db, labels, Params{Hashes: 8, Chunk: 10, Passes: 1, Utility: Area, Workers: 1, Seed: 1})
	if clf.DefaultClass != 0 {
		t.Errorf("default class %d want majority 0", clf.DefaultClass)
	}
	// A row matching nothing gets the default.
	if got := clf.Predict([]int32{99}); got != 0 {
		t.Errorf("unmatched row class %d", got)
	}
}

func TestUtilityStrings(t *testing.T) {
	if Area.String() != "area" || RC.String() != "rc" {
		t.Error("utility names")
	}
}

func TestMineLosslessProperty(t *testing.T) {
	// Random planted-pattern databases stay lossless under mining.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var rows [][]int
		pattern := []int{2, 5, 7, 11}
		for i := 0; i < 30; i++ {
			row := map[int]bool{}
			if rng.Float64() < 0.6 {
				for _, it := range pattern {
					row[it] = true
				}
			}
			for k := 0; k < 3; k++ {
				row[rng.Intn(20)] = true
			}
			var r []int
			for it := range row {
				r = append(r, it)
			}
			rows = append(rows, r)
		}
		db := itemset.FromRows(rows)
		res := Mine(db, Params{Hashes: 8, Chunk: 16, Passes: 3, Utility: Area, Workers: 1, Seed: seed})
		for i := range db.Rows {
			got, err := res.Decompress(i)
			if err != nil || !reflect.DeepEqual(got, db.Rows[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
