package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Mapiter flags `for … range` over a map whose body has an order-dependent
// effect — appending to a slice that outlives the loop, accumulating into a
// float, or writing output. Go randomizes map iteration order per run, so
// each of those effects makes results drift run to run; PR 7 shipped
// exactly this bug when CumulativeAPSS accumulated pair posteriors in map
// order and curve points moved by an ulp between identical runs.
//
// The analyzer only looks inside the configured determinism-critical
// packages. A loop is not flagged when the order dependence is repaired
// afterwards: appending into a slice that is passed to sort.*/slices.Sort*
// later in the enclosing function is the sanctioned collect-then-sort
// idiom (lam.TrainClassifier's class list). Deliberate order-free sites carry
// //lint:mapiter-ok <reason>.
type MapiterConfig struct {
	// Packages are import-path patterns (prefix or suffix match) the
	// analyzer applies to.
	Packages []string
}

// NewMapiter builds the analyzer.
func NewMapiter(cfg MapiterConfig) *Analyzer {
	return &Analyzer{
		Name: "mapiter",
		Doc:  "map iteration with order-dependent effects in determinism-critical packages",
		Run:  func(p *Package) []Finding { return runMapiter(p, cfg) },
	}
}

func runMapiter(p *Package, cfg MapiterConfig) []Finding {
	if !pathMatch(p.ImportPath, cfg.Packages) {
		return nil
	}
	var out []Finding
	for _, file := range p.Files {
		parents := parentMap(file)
		ast.Inspect(file, func(n ast.Node) bool {
			rs, ok := n.(*ast.RangeStmt)
			if !ok || !isMapType(p.Info, rs.X) {
				return true
			}
			for _, eff := range mapOrderEffects(p, rs, parents) {
				out = append(out, Finding{
					Pos:      p.Fset.Position(eff.pos),
					Analyzer: "mapiter",
					Message: fmt.Sprintf("%s inside range over map %s makes results depend on map iteration order — sort the keys first or annotate //lint:mapiter-ok <reason>",
						eff.what, exprString(rs.X)),
				})
			}
			return true
		})
	}
	return out
}

type orderEffect struct {
	pos  token.Pos
	what string
}

// mapOrderEffects scans a map-range body for order-dependent effects.
func mapOrderEffects(p *Package, rs *ast.RangeStmt, parents map[ast.Node]ast.Node) []orderEffect {
	var effs []orderEffect
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.AssignStmt:
			if eff, ok := assignEffect(p, rs, x, parents); ok {
				effs = append(effs, eff)
			}
		case *ast.CallExpr:
			if what, ok := outputCall(p.Info, x); ok {
				effs = append(effs, orderEffect{pos: x.Pos(), what: what})
			}
		}
		return true
	})
	return effs
}

// assignEffect classifies one assignment inside the loop body.
func assignEffect(p *Package, rs *ast.RangeStmt, as *ast.AssignStmt, parents map[ast.Node]ast.Node) (orderEffect, bool) {
	// Float accumulation: x += v (and -=, *=, /=) where x outlives the loop.
	switch as.Tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
		lhs := as.Lhs[0]
		if t := typeOf(p.Info, lhs); t != nil {
			if b, ok := t.Underlying().(*types.Basic); ok && b.Info()&types.IsFloat != 0 {
				if declaredOutside(p.Info, lhs, rs) {
					return orderEffect{pos: as.Pos(), what: "float accumulation"}, true
				}
			}
		}
		return orderEffect{}, false
	case token.ASSIGN, token.DEFINE:
	default:
		return orderEffect{}, false
	}
	// Append: v = append(v, …) where v is a slice that outlives the loop.
	// Assigning through a map index (m[k] = append(…)) is keyed by the
	// iteration variable and therefore order-independent.
	for i, rhs := range as.Rhs {
		call, ok := rhs.(*ast.CallExpr)
		if !ok || !isBuiltin(p.Info, call, "append") || i >= len(as.Lhs) {
			continue
		}
		lhs := as.Lhs[i]
		if ix, ok := lhs.(*ast.IndexExpr); ok && isMapType(p.Info, ix.X) {
			continue
		}
		if !declaredOutside(p.Info, lhs, rs) {
			continue
		}
		if sortedAfter(p.Info, rs, lhs, parents) {
			continue
		}
		return orderEffect{pos: as.Pos(), what: "append to slice " + exprString(lhs)}, true
	}
	return orderEffect{}, false
}

// declaredOutside reports whether the root object of lhs is declared
// outside the loop body (an effect on it survives the loop, so iteration
// order matters). Unresolvable roots count as outside.
func declaredOutside(info *types.Info, lhs ast.Expr, rs *ast.RangeStmt) bool {
	id := rootIdent(lhs)
	if id == nil {
		return true
	}
	obj := info.Uses[id]
	if obj == nil {
		obj = info.Defs[id]
	}
	if obj == nil {
		return true
	}
	return obj.Pos() < rs.Body.Pos() || obj.Pos() > rs.Body.End()
}

// outputCall reports whether a call writes externally visible output:
// fmt print family, io.WriteString, or any Write*/Print* method.
func outputCall(info *types.Info, call *ast.CallExpr) (string, bool) {
	if pkg, name, ok := calleePkgFunc(info, call); ok {
		if pkg == "fmt" && strings.HasPrefix(name, "Print") {
			return "output via fmt." + name, true
		}
		if pkg == "fmt" && strings.HasPrefix(name, "Fprint") {
			return "output via fmt." + name, true
		}
		if pkg == "io" && name == "WriteString" {
			return "output via io.WriteString", true
		}
		return "", false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	if fn, ok := info.Uses[sel.Sel].(*types.Func); ok && fn.Signature().Recv() != nil {
		switch n := fn.Name(); n {
		case "Write", "WriteString", "WriteByte", "WriteRune", "Print", "Printf", "Println":
			return "output via method " + n, true
		}
	}
	return "", false
}

// sortedAfter reports whether the slice assigned inside the loop is sorted
// by a statement after the loop in any enclosing block — the
// collect-then-sort idiom that restores determinism.
func sortedAfter(info *types.Info, rs *ast.RangeStmt, target ast.Expr, parents map[ast.Node]ast.Node) bool {
	tid := rootIdent(target)
	if tid == nil {
		return false
	}
	tobj := info.Uses[tid]
	if tobj == nil {
		tobj = info.Defs[tid]
	}
	var node ast.Node = rs
	for node != nil {
		parent := parents[node]
		if blk, ok := parent.(*ast.BlockStmt); ok {
			past := false
			for _, st := range blk.List {
				if st == node {
					past = true
					continue
				}
				if past && sortsTarget(info, st, tobj) {
					return true
				}
			}
		}
		node = parent
	}
	return false
}

// sortsTarget reports whether stmt is a sort.*/slices.Sort* call whose
// first argument is rooted at obj.
func sortsTarget(info *types.Info, stmt ast.Stmt, obj types.Object) bool {
	found := false
	ast.Inspect(stmt, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || found {
			return !found
		}
		pkg, name, ok := calleePkgFunc(info, call)
		if !ok || len(call.Args) == 0 {
			return true
		}
		isSort := pkg == "sort" || (pkg == "slices" && strings.HasPrefix(name, "Sort"))
		if !isSort {
			return true
		}
		if id := rootIdent(call.Args[0]); id != nil && obj != nil && info.Uses[id] == obj {
			found = true
		}
		return true
	})
	return found
}

// isBuiltin reports whether call invokes the named builtin.
func isBuiltin(info *types.Info, call *ast.CallExpr, name string) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, isB := info.Uses[id].(*types.Builtin)
	return isB
}

// parentMap records each node's parent for upward walks.
func parentMap(root ast.Node) map[ast.Node]ast.Node {
	parents := make(map[ast.Node]ast.Node)
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if len(stack) > 0 {
			parents[n] = stack[len(stack)-1]
		}
		stack = append(stack, n)
		return true
	})
	return parents
}

// exprString renders a short expression for messages.
func exprString(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		return exprString(x.X) + "." + x.Sel.Name
	case *ast.IndexExpr:
		return exprString(x.X) + "[…]"
	case *ast.CallExpr:
		return exprString(x.Fun) + "(…)"
	case *ast.ParenExpr:
		return "(" + exprString(x.X) + ")"
	case *ast.StarExpr:
		return "*" + exprString(x.X)
	case *ast.UnaryExpr:
		return x.Op.String() + exprString(x.X)
	default:
		return "expr"
	}
}
