package dataset

import (
	"strings"
	"testing"

	"plasmahd/internal/vec"
)

func TestLoadEveryKind(t *testing.T) {
	cases := []struct {
		spec    Spec
		rows    int
		measure vec.Measure
	}{
		{Spec{Kind: "toy", Seed: 1}, 50, vec.CosineSim},
		{Spec{Kind: "table", Name: "wine", Seed: 1}, 178, vec.CosineSim},
		{Spec{Kind: "corpus", Name: "twitter", Rows: 100, Seed: 1}, 100, vec.CosineSim},
		{Spec{Kind: "graph", Name: "er", Rows: 60, Edges: 120, Seed: 1}, 60, vec.JaccardSim},
	}
	for _, tc := range cases {
		ds, err := Load(tc.spec)
		if err != nil {
			t.Fatalf("Load(%+v): %v", tc.spec, err)
		}
		if ds.N() != tc.rows || ds.Measure != tc.measure {
			t.Errorf("Load(%+v): got %d rows measure %v, want %d rows measure %v",
				tc.spec, ds.N(), ds.Measure, tc.rows, tc.measure)
		}
	}
}

func TestLoadIsDeterministic(t *testing.T) {
	spec := Spec{Kind: "graph", Name: "pa", Rows: 80, Edges: 200, Seed: 9}
	a, err := Load(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Load(spec)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Rows {
		if a.Rows[i].Len() != b.Rows[i].Len() {
			t.Fatalf("row %d differs across identical Load calls", i)
		}
		for k, ix := range a.Rows[i].Indices {
			if b.Rows[i].Indices[k] != ix {
				t.Fatalf("row %d index %d differs across identical Load calls", i, k)
			}
		}
	}
}

func TestLoadErrors(t *testing.T) {
	for _, spec := range []Spec{
		{},
		{Kind: "nope"},
		{Kind: "table", Name: "nope"},
		{Kind: "corpus", Name: "nope"},
		{Kind: "graph", Name: "nope"},
	} {
		if _, err := Load(spec); err == nil {
			t.Errorf("Load(%+v): want error", spec)
		}
	}
}

func TestSourcesCoverEveryKind(t *testing.T) {
	srcs := Sources()
	got := make(map[string]int)
	for _, s := range srcs {
		got[s.Kind] = len(s.Names)
	}
	for _, kind := range Kinds() {
		if got[kind] == 0 {
			t.Errorf("Sources() lists no names for kind %q", kind)
		}
	}
	// Every listed name must load.
	for _, s := range srcs {
		name := s.Names[0]
		spec := Spec{Kind: s.Kind, Name: name, Rows: 40, Seed: 1}
		if _, err := Load(spec); err != nil {
			t.Errorf("Sources() lists %s/%s but Load fails: %v", s.Kind, name, err)
		}
	}
}

func TestFromGraphRows(t *testing.T) {
	ds, err := Load(Spec{Kind: "graph", Name: "geom", Rows: 30, Edges: 60, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range ds.Rows {
		found := false
		for k, ix := range r.Indices {
			if k > 0 && r.Indices[k-1] >= ix {
				t.Fatalf("row %d: indices not strictly increasing", i)
			}
			if int(ix) == i {
				found = true
			}
		}
		if !found {
			t.Fatalf("row %d: closed neighborhood must include the vertex itself", i)
		}
	}
	if !strings.Contains(ds.Name, "geom") {
		t.Errorf("graph dataset name should mention the model, got %q", ds.Name)
	}
}

// TestGraphSpecBounds pins the generation ceilings: graph specs come off
// the wire at session creation, so absurd vertex/edge
// requests must fail fast instead of generating gigabytes.
func TestGraphSpecBounds(t *testing.T) {
	for _, spec := range []Spec{
		{Kind: "graph", Name: "er", Rows: MaxGraphRows + 1},
		{Kind: "graph", Name: "er", Rows: 100, Edges: MaxGraphEdges + 1},
		{Kind: "graph", Name: "er", Rows: 1 << 40},
	} {
		if _, err := Load(spec); err == nil {
			t.Errorf("Load(%+v): want error", spec)
		}
	}
	// At the ceiling the spec is still well-formed (just expensive), so
	// only the over-limit side may be refused; check the error message
	// names the limit rather than generating to find out.
	if _, err := Load(Spec{Kind: "graph", Name: "er", Rows: MaxGraphRows + 1, Edges: 10}); err == nil || !strings.Contains(err.Error(), "limit") {
		t.Errorf("over-limit rows: got err %v, want a limit error", err)
	}
}
