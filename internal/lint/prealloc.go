package lint

import (
	"fmt"
	"go/ast"
	"strings"
)

// Prealloc flags make() calls in the snapshot/ingest decode paths whose
// length or capacity is not provably bounded. A decoder that preallocates
// straight from a decoded count hands memory control to whoever crafts the
// stream: PR 4 closed an OOM where a ~100-byte forged restore body
// declaring 2^28 rows allocated gigabytes before the first validation
// error. The sanctioned pattern is the capped append —
// make([]T, 0, min(n, bound)) and grow — which these files use everywhere
// the count crosses the trust boundary.
//
// Allowed size expressions: compile-time constants, len()/cap() of
// in-memory values, and min(…) with at least one constant argument (the
// cap). Anything else — a parameter, a decoded field, arithmetic on one —
// is flagged.
type PreallocConfig struct {
	// Files are path suffixes of the decode-path files the analyzer
	// applies to. New codec files must be added here (the lint golden
	// tests pin the default list).
	Files []string
}

// NewPrealloc builds the analyzer.
func NewPrealloc(cfg PreallocConfig) *Analyzer {
	return &Analyzer{
		Name: "prealloc",
		Run:  func(p *Package) []Finding { return runPrealloc(p, cfg) },
	}
}

func runPrealloc(p *Package, cfg PreallocConfig) []Finding {
	var out []Finding
	for _, file := range p.Files {
		name := p.Fset.Position(file.Pos()).Filename
		if !fileMatch(name, cfg.Files) {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || !isBuiltin(p.Info, call, "make") || len(call.Args) < 2 {
				return true
			}
			for _, arg := range call.Args[1:] {
				if boundedSize(p, arg) {
					continue
				}
				out = append(out, Finding{
					Pos:      p.Fset.Position(call.Pos()),
					Analyzer: "prealloc",
					Message: fmt.Sprintf("make sized by %s, which is not provably bounded in a decode path — use the capped-append pattern (make(…, 0, min(n, cap)) + append)",
						exprString(arg)),
				})
				break
			}
			return true
		})
	}
	return out
}

// boundedSize reports whether a make() size argument cannot be steered by
// decoded input: a constant, len/cap of something already in memory, or a
// min() whose cap side is constant.
func boundedSize(p *Package, arg ast.Expr) bool {
	if tv, ok := p.Info.Types[arg]; ok && tv.Value != nil {
		return true
	}
	call, ok := ast.Unparen(arg).(*ast.CallExpr)
	if !ok {
		return false
	}
	switch {
	case isBuiltin(p.Info, call, "len"), isBuiltin(p.Info, call, "cap"):
		return true
	case isBuiltin(p.Info, call, "min"):
		for _, a := range call.Args {
			if tv, ok := p.Info.Types[a]; ok && tv.Value != nil {
				return true
			}
		}
	}
	return false
}

func fileMatch(name string, suffixes []string) bool {
	for _, s := range suffixes {
		if strings.HasSuffix(name, s) {
			return true
		}
	}
	return false
}
