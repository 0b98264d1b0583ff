package dataset

import (
	"testing"

	"plasmahd/internal/vec"
)

func TestNewTableShapes(t *testing.T) {
	for _, name := range TableNames() {
		tab, err := NewTableScaled(name, 300, 1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want := tab.Spec.Points
		if want > 300 {
			want = 300
		}
		if len(tab.X) != want {
			t.Errorf("%s: %d rows want %d", name, len(tab.X), want)
		}
		if len(tab.Labels) != len(tab.X) {
			t.Errorf("%s: labels/rows mismatch", name)
		}
		for _, row := range tab.X {
			if len(row) != tab.Spec.Dims {
				t.Fatalf("%s: row dims %d want %d", name, len(row), tab.Spec.Dims)
			}
		}
		for _, l := range tab.Labels {
			if l < 0 || l >= tab.Spec.Clusters {
				t.Fatalf("%s: label %d out of range", name, l)
			}
		}
	}
}

func TestNewTablePaperSizes(t *testing.T) {
	tab, err := NewTable("wine", 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.X) != 178 || tab.Spec.Dims != 13 {
		t.Errorf("wine shape %dx%d, want 178x13 (Table 2.1)", len(tab.X), tab.Spec.Dims)
	}
	if _, err := NewTable("nope", 1); err == nil {
		t.Error("unknown table should error")
	}
}

func TestTableDeterministic(t *testing.T) {
	a, _ := NewTableScaled("wine", 50, 99)
	b, _ := NewTableScaled("wine", 50, 99)
	for i := range a.X {
		for j := range a.X[i] {
			if a.X[i][j] != b.X[i][j] {
				t.Fatal("same seed must reproduce the same table")
			}
		}
	}
	c, _ := NewTableScaled("wine", 50, 100)
	same := true
	for i := range a.X {
		for j := range a.X[i] {
			if a.X[i][j] != c.X[i][j] {
				same = false
			}
		}
	}
	if same {
		t.Error("different seeds should differ")
	}
}

func TestTableClusterStructure(t *testing.T) {
	// Within-cluster cosine similarity should exceed across-cluster — this is
	// the property the Fig 2.2 threshold sweep depends on.
	tab, _ := NewTableScaled("wine", 120, 7)
	d := tab.Dataset()
	var within, across []float64
	for i := 0; i < d.N(); i++ {
		for j := i + 1; j < d.N(); j++ {
			s := d.Similarity(i, j)
			if tab.Labels[i] == tab.Labels[j] {
				within = append(within, s)
			} else {
				across = append(across, s)
			}
		}
	}
	mw := mean(within)
	ma := mean(across)
	if mw <= ma+0.1 {
		t.Errorf("within-cluster sim %v not clearly above across %v", mw, ma)
	}
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	if len(xs) == 0 {
		return 0
	}
	return s / float64(len(xs))
}

func TestToy50(t *testing.T) {
	toy := Toy50(1)
	if len(toy.X) != 50 || len(toy.X[0]) != 3 {
		t.Fatalf("toy shape %dx%d", len(toy.X), len(toy.X[0]))
	}
	for _, row := range toy.X {
		for _, v := range row {
			if v < 0 || v > 1 {
				t.Fatalf("toy value %v outside [0,1]", v)
			}
		}
	}
}

func TestNewCorpus(t *testing.T) {
	for _, name := range CorpusNames() {
		d, err := NewCorpusScaled(name, 200, 3)
		if err != nil {
			t.Fatal(err)
		}
		if d.N() == 0 || d.N() > 200 {
			t.Errorf("%s: %d docs", name, d.N())
		}
		for _, r := range d.Rows {
			if r.Len() == 0 {
				t.Fatalf("%s: empty row", name)
			}
			for k := 1; k < r.Len(); k++ {
				if r.Indices[k] <= r.Indices[k-1] {
					t.Fatalf("%s: unsorted indices", name)
				}
			}
		}
		if name == "orkut" && d.Measure != vec.JaccardSim {
			t.Error("orkut must use Jaccard (unweighted)")
		}
		if name == "rcv1" && d.Measure != vec.CosineSim {
			t.Error("rcv1 must use cosine")
		}
	}
	if _, err := NewCorpusScaled("nope", 0, 1); err == nil {
		t.Error("unknown corpus should error")
	}
}

func TestCorpusHasHighSimilarityPairs(t *testing.T) {
	// Community structure must produce pairs above 0.7 — the regime probed
	// in Figs 2.7/2.10.
	d, err := NewCorpusScaled("twitter", 300, 5)
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	for i := 0; i < d.N() && count == 0; i++ {
		for j := i + 1; j < d.N(); j++ {
			if d.Similarity(i, j) >= 0.7 {
				count++
				break
			}
		}
	}
	if count == 0 {
		t.Error("no pairs above 0.7; community planting too weak")
	}
}

func TestNewTransactions(t *testing.T) {
	for _, name := range TransNames() {
		tr, err := NewTransactionsScaled(name, 400, 2)
		if err != nil {
			t.Fatal(err)
		}
		if len(tr.Rows) == 0 {
			t.Fatalf("%s: no rows", name)
		}
		for _, row := range tr.Rows {
			for k := 1; k < len(row); k++ {
				if row[k] <= row[k-1] {
					t.Fatalf("%s: row not sorted/distinct: %v", name, row)
				}
			}
			for _, it := range row {
				if it < 0 || it >= tr.Items {
					t.Fatalf("%s: item %d out of universe %d", name, it, tr.Items)
				}
			}
		}
		if tr.Spec.Classes > 0 && len(tr.Labels) != len(tr.Rows) {
			t.Errorf("%s: missing labels", name)
		}
		if tr.Size() == 0 {
			t.Errorf("%s: zero size", name)
		}
	}
	if _, err := NewTransactionsScaled("nope", 0, 1); err == nil {
		t.Error("unknown transactional set should error")
	}
}

func TestTransDensityOrdering(t *testing.T) {
	// Dense sets should have higher avg row length / universe ratio than
	// sparse ones, matching Table 4.4's density classification.
	dense, _ := NewTransactionsScaled("mushroom", 500, 2)
	sparse, _ := NewTransactionsScaled("kosarak", 500, 2)
	dr := float64(dense.Size()) / float64(len(dense.Rows)) / float64(dense.Items)
	sr := float64(sparse.Size()) / float64(len(sparse.Rows)) / float64(sparse.Items)
	if dr <= sr {
		t.Errorf("density ordering violated: mushroom %v <= kosarak %v", dr, sr)
	}
}

func TestNewWebGraph(t *testing.T) {
	for _, name := range GraphNames() {
		g, err := NewWebGraphScaled(name, 500, 4)
		if err != nil {
			t.Fatal(err)
		}
		if len(g.Rows) == 0 || len(g.Rows) > 500 {
			t.Fatalf("%s: %d rows", name, len(g.Rows))
		}
		for v, row := range g.Rows {
			for k := 1; k < len(row); k++ {
				if row[k] <= row[k-1] {
					t.Fatalf("%s: adjacency not sorted", name)
				}
			}
			for _, u := range row {
				if u == v {
					t.Fatalf("%s: self loop at %d", name, v)
				}
				if u < 0 || u >= len(g.Rows) {
					t.Fatalf("%s: edge to %d outside graph", name, u)
				}
			}
		}
	}
	if _, err := NewWebGraphScaled("nope", 0, 1); err == nil {
		t.Error("unknown graph should error")
	}
}

func TestWebGraphHasLongRows(t *testing.T) {
	// Spam blocks must create long identical-ish adjacency rows (the long
	// pattern source of Fig 4.11).
	g, err := NewWebGraphScaled("eu2005", 1500, 4)
	if err != nil {
		t.Fatal(err)
	}
	long := 0
	for _, row := range g.Rows {
		if len(row) >= 50 {
			long++
		}
	}
	if long < 5 {
		t.Errorf("only %d rows with >=50 out-links; spam blocks missing", long)
	}
}
