package itemset

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"plasmahd/internal/dataset"
)

func toyDB() *DB {
	return FromRows([][]int{
		{1, 2, 3},
		{1, 2, 4},
		{1, 2, 3, 4},
		{2, 3},
		{1, 3},
	})
}

func TestFromRowsNormalizes(t *testing.T) {
	db := FromRows([][]int{{3, 1, 2, 2, 1}})
	want := []int32{1, 2, 3}
	if len(db.Rows[0]) != 3 {
		t.Fatalf("row %v", db.Rows[0])
	}
	for i, it := range want {
		if db.Rows[0][i] != it {
			t.Fatalf("row %v want %v", db.Rows[0], want)
		}
	}
	if db.NumItems != 4 {
		t.Errorf("NumItems %d", db.NumItems)
	}
	if db.Size() != 3 {
		t.Errorf("Size %d", db.Size())
	}
}

func TestSupportAndContains(t *testing.T) {
	db := toyDB()
	if s := db.Support([]int32{1, 2}); s != 3 {
		t.Errorf("sup(1,2) = %d want 3", s)
	}
	if s := db.Support([]int32{3}); s != 4 {
		t.Errorf("sup(3) = %d want 4", s)
	}
	if !ContainsSorted([]int32{1, 2, 3}, []int32{1, 3}) {
		t.Error("subset check")
	}
	if ContainsSorted([]int32{1, 3}, []int32{1, 2}) {
		t.Error("non-subset accepted")
	}
	if !ContainsSorted([]int32{1}, nil) {
		t.Error("empty set is a subset")
	}
}

func TestSample(t *testing.T) {
	db := toyDB()
	half := db.Sample(0.5)
	if len(half.Rows) >= len(db.Rows) || len(half.Rows) == 0 {
		t.Errorf("half sample %d rows of %d", len(half.Rows), len(db.Rows))
	}
	full := db.Sample(1.0)
	if len(full.Rows) != len(db.Rows) {
		t.Error("full sample should clone")
	}
}

func keys(m map[int]bool) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

func TestMineClosed(t *testing.T) {
	// Classic example: {1,2} in every row that has 1 or 2.
	db := FromRows([][]int{
		{1, 2, 3},
		{1, 2, 3},
		{1, 2, 4},
	})
	closed, _ := MineClosed(db, 2, 0)
	// sup(1)=sup(2)=sup(1,2)=3 so {1},{2} are not closed; {1,2} is.
	for _, s := range closed {
		if len(s.Items) == 1 && (s.Items[0] == 1 || s.Items[0] == 2) {
			t.Errorf("non-closed singleton %v survived", s.Items)
		}
	}
	found12 := false
	found123 := false
	for _, s := range closed {
		if len(s.Items) == 2 && s.Items[0] == 1 && s.Items[1] == 2 && s.Support == 3 {
			found12 = true
		}
		if len(s.Items) == 3 && s.Items[0] == 1 && s.Items[2] == 3 && s.Support == 2 {
			found123 = true
		}
	}
	if !found12 || !found123 {
		t.Errorf("missing closed sets: %v", closed)
	}
	// Every closed set must be frequent with matching support.
	for _, s := range closed {
		if db.Support(s.Items) != s.Support {
			t.Errorf("support mismatch for %v", s.Items)
		}
	}
}

func TestClosedSubsetOfFrequentProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows := make([][]int, 15+rng.Intn(15))
		for i := range rows {
			n := 1 + rng.Intn(5)
			row := map[int]bool{}
			for len(row) < n {
				row[rng.Intn(10)] = true
			}
			rows[i] = keys(row)
		}
		db := FromRows(rows)
		freq := AprioriFrequent(db, 2)
		closed, _ := MineClosed(db, 2, 0)
		if len(closed) > len(freq) {
			return false
		}
		fset := map[string]int{}
		for _, s := range freq {
			fset[Key(s.Items)] = s.Support
		}
		for _, s := range closed {
			if sup, ok := fset[Key(s.Items)]; !ok || sup != s.Support {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestLCMMatchesSubsumptionOracleProperty(t *testing.T) {
	// The LCM enumeration must produce exactly the closed sets the
	// frequent+subsumption oracle produces.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows := make([][]int, 10+rng.Intn(20))
		for i := range rows {
			n := 1 + rng.Intn(6)
			row := map[int]bool{}
			for len(row) < n {
				row[rng.Intn(9)] = true
			}
			rows[i] = keys(row)
		}
		db := FromRows(rows)
		minsup := 1 + rng.Intn(4)
		lcm, c1 := MineClosed(db, minsup, 0)
		oracle := mineClosedBySubsumption(db, minsup)
		if !c1 || len(lcm) != len(oracle) {
			return false
		}
		for i := range lcm {
			if Key(lcm[i].Items) != Key(oracle[i].Items) || lcm[i].Support != oracle[i].Support {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestMineClosedDenseFeasible(t *testing.T) {
	// Dense planted data must be minable without frequent-set explosion.
	tr, err := dataset.NewTransactionsScaled("mushroom", 300, 2)
	if err != nil {
		t.Fatal(err)
	}
	db := FromRows(tr.Rows)
	closed, complete := MineClosed(db, 80, 200000)
	if !complete {
		t.Fatalf("LCM did not complete (%d patterns)", len(closed))
	}
	if len(closed) == 0 {
		t.Fatal("no closed sets")
	}
	// There must be long patterns (the planted ones).
	maxLen := 0
	for _, c := range closed {
		if len(c.Items) > maxLen {
			maxLen = len(c.Items)
		}
	}
	if maxLen < 5 {
		t.Errorf("max closed length %d; planted patterns missing", maxLen)
	}
}

func TestCoverCompresses(t *testing.T) {
	// Ten identical rows: the pattern {1,2,3,4} should compress well.
	rows := make([][]int, 10)
	for i := range rows {
		rows[i] = []int{1, 2, 3, 4}
	}
	db := FromRows(rows)
	cands, _ := MineClosed(db, 2, 0)
	res := Cover(db, cands, OrderArea)
	if res.Ratio <= 2 {
		t.Errorf("ratio %v for 10 identical rows", res.Ratio)
	}
	// 10 pointers + 4 code-table tokens = 14 vs original 40.
	if res.CompressedSize != 14 {
		t.Errorf("compressed size %d want 14", res.CompressedSize)
	}
	if len(res.CodeTable) != 1 {
		t.Errorf("code table %v", res.CodeTable)
	}
	// Original db untouched.
	if db.Size() != 40 {
		t.Error("Cover must not modify the input db")
	}
}

func TestCoverUnfruitfulSkipped(t *testing.T) {
	// A pattern appearing once can't compress: f*l <= f+l.
	db := FromRows([][]int{{1, 2, 3}, {4, 5, 6}})
	cands := []Itemset{{Items: []int32{1, 2, 3}, Support: 1}}
	res := Cover(db, cands, OrderArea)
	if len(res.CodeTable) != 0 {
		t.Error("single-occurrence pattern must be skipped")
	}
	if res.Ratio != 1 {
		t.Errorf("ratio %v want 1", res.Ratio)
	}
}

func TestCoverOrdersDiffer(t *testing.T) {
	// Construct the Fig 4.2 counterexample-style data where order matters:
	// rows 1-2 contain all 12 items; rows 3-6 contain only items 10-12.
	var rows [][]int
	for i := 0; i < 2; i++ {
		rows = append(rows, []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	}
	for i := 0; i < 4; i++ {
		rows = append(rows, []int{10, 11, 12})
	}
	db := FromRows(rows)
	cands, _ := MineClosed(db, 2, 0)
	area := Cover(db, cands, OrderArea)
	krimp := Cover(db, cands, OrderKrimp)
	if area.Ratio <= 1 || krimp.Ratio <= 1 {
		t.Errorf("both orders should compress: area %v krimp %v", area.Ratio, krimp.Ratio)
	}
}

func TestCoverOnGeneratedTransactions(t *testing.T) {
	tr, err := dataset.NewTransactionsScaled("mushroom", 300, 2)
	if err != nil {
		t.Fatal(err)
	}
	db := FromRows(tr.Rows)
	cands, _ := MineClosed(db, 80, 50000)
	res := Cover(db, cands, OrderArea)
	if res.Ratio <= 1.3 {
		t.Errorf("dense planted data should compress: ratio %v", res.Ratio)
	}
}
