package lint

import (
	"fmt"
	"go/ast"
)

// Mapiter flags every visit of a map in Go's randomized iteration order: a
// `for … range` over a map, and any maps.Keys, maps.Values or maps.All
// call other than slices.Sorted(maps.Keys(m)). This is the bug class where
// CumulativeAPSS accumulated pair posteriors in map order and curve points
// moved by an ulp between identical runs. Rather than judge which loop
// bodies leak the order, the determinism-critical packages visit a map only
// through its sorted keys or through an order-free helper (maps.Copy,
// maps.Clone).
type MapiterConfig struct {
	// Packages are import-path patterns (prefix or suffix match) the
	// analyzer applies to.
	Packages []string
}

// NewMapiter builds the analyzer.
func NewMapiter(cfg MapiterConfig) *Analyzer {
	return &Analyzer{
		Name: "mapiter",
		Run:  func(p *Package) []Finding { return runMapiter(p, cfg) },
	}
}

func runMapiter(p *Package, cfg MapiterConfig) []Finding {
	if !pathMatch(p.ImportPath, cfg.Packages) {
		return nil
	}
	var out []Finding
	flag := func(n ast.Node, format string, args ...any) {
		out = append(out, Finding{
			Pos:      p.Fset.Position(n.Pos()),
			Analyzer: "mapiter",
			Message:  fmt.Sprintf(format, args...) + " — visit slices.Sorted(maps.Keys(…)) instead",
		})
	}
	for _, file := range p.Files {
		sorted := make(map[ast.Node]bool) // the maps.Keys calls slices.Sorted wraps
		ast.Inspect(file, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.RangeStmt:
				if isMapType(p.Info, x.X) {
					flag(x, "range over map %s visits it in random order", exprString(x.X))
				}
			case *ast.CallExpr:
				pkg, name, ok := calleePkgFunc(p.Info, x)
				switch {
				case !ok:
				case pkg == "slices" && name == "Sorted" && len(x.Args) == 1:
					sorted[ast.Unparen(x.Args[0])] = true
				case pkg == "maps" && (name == "Keys" || name == "Values" || name == "All"):
					if name != "Keys" || !sorted[x] {
						flag(x, "maps.%s yields in random order", name)
					}
				}
			}
			return true
		})
	}
	return out
}
