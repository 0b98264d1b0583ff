package gen

import (
	"testing"
	"testing/quick"
)

func TestErdosRenyiExactEdges(t *testing.T) {
	g := ErdosRenyi(50, 200, 1)
	if g.N() != 50 || g.M() != 200 {
		t.Errorf("ER: N=%d M=%d", g.N(), g.M())
	}
	// Over-requesting clamps to complete.
	g = ErdosRenyi(5, 100, 1)
	if g.M() != 10 {
		t.Errorf("clamped ER M=%d want 10", g.M())
	}
}

func TestPreferentialAttachmentEdgesAndHubs(t *testing.T) {
	g := PreferentialAttachment(200, 600, 2)
	if g.N() != 200 {
		t.Errorf("PA N=%d", g.N())
	}
	if g.M() < 540 || g.M() > 600 {
		t.Errorf("PA M=%d want ~600", g.M())
	}
	// PA must produce hubs: max degree far above the mean.
	maxDeg := 0
	for _, d := range g.Degrees() {
		if d > maxDeg {
			maxDeg = d
		}
	}
	if float64(maxDeg) < 3*g.MeanDegree() {
		t.Errorf("PA max degree %d vs mean %.1f — no hub structure", maxDeg, g.MeanDegree())
	}
}

func TestRandomGeometricLocality(t *testing.T) {
	g := RandomGeometric(150, 600, 3)
	if g.M() != 600 {
		t.Errorf("Geom M=%d", g.M())
	}
	er := ErdosRenyi(150, 600, 3)
	// Geometric graphs have far more triangles than ER at equal density —
	// the "local structure" property §3.5 highlights.
	if g.Triangles() < 3*er.Triangles() {
		t.Errorf("geom triangles %d not >> ER %d", g.Triangles(), er.Triangles())
	}
}

func TestGenerateDispatch(t *testing.T) {
	for _, m := range []Model{ModelER, ModelPA, ModelGeom} {
		g := Generate(m, 30, 60, 4)
		if g.N() != 30 || g.M() == 0 {
			t.Errorf("%s: N=%d M=%d", m, g.N(), g.M())
		}
	}
}

func TestGeneratorsDeterministicProperty(t *testing.T) {
	f := func(seed int64) bool {
		a := ErdosRenyi(40, 100, seed)
		b := ErdosRenyi(40, 100, seed)
		if a.M() != b.M() {
			return false
		}
		for v := 0; v < a.N(); v++ {
			na, nb := a.Neighbors(v), b.Neighbors(v)
			if len(na) != len(nb) {
				return false
			}
			for i := range na {
				if na[i] != nb[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}
