// Package lint is plasmalint's engine: a stdlib-only static-analysis
// framework (go/ast + go/types, export-data imports via the go tool) with
// four project-specific analyzers, each looking at one package at a time
// and each encoding an invariant this codebase has already shipped a
// bugfix for, where nothing in the code's structure enforces it:
//
//   - mapiter:   PR 7 — CumulativeAPSS accumulated floats in Go-map
//     iteration order, so curve points drifted by an ulp run to run. The
//     determinism packages visit a map only through its sorted keys
//     (slices.Sorted(maps.Keys(m))), so any range over a map is flagged.
//   - atomicmix: PR 5 — SRP.gaussRow mixed atomic and plain access to the
//     same field; the fix was typed atomics, so function-style sync/atomic
//     calls are flagged outright.
//   - prealloc:  PR 4 — snapshot decoders preallocated slices from
//     untrusted length fields, so a ~100-byte forged body could OOM the
//     daemon.
//   - httperr:   PR 6 — error paths that bypassed the JSON envelope were
//     invisible to the stats and metrics counters. Route handlers now
//     return values and cannot; this polices the few functions that still
//     hold a ResponseWriter.
//
// Invariants the structure does enforce have no analyzer: there is no
// append-lock order to keep (a session's state is its knowledge cache,
// which has the one append lock) and the request-handling goroutine
// (server.detach is the only one). docs/ARCHITECTURE.md has the audit.
//
// A finding prints as "file:line: [analyzer] message". Every rule is
// absolute: no comment excuses a site, and each message names the rewrite
// that satisfies the rule. A false positive is mended by narrowing the
// analyzer, not by excusing the site.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Finding is one analyzer hit.
type Finding struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

// String renders the canonical "file:line: [analyzer] message" shape that
// the driver prints and the golden tests assert.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d: [%s] %s", f.Pos.Filename, f.Pos.Line, f.Analyzer, f.Message)
}

// Analyzer is one invariant checker over one type-checked package.
type Analyzer struct {
	Name string
	Run  func(p *Package) []Finding
}

// Package is one type-checked package: what analyzers consume.
type Package struct {
	ImportPath string
	Fset       *token.FileSet
	Files      []*ast.File
	Types      *types.Package
	Info       *types.Info
}

// Lint runs every analyzer over every package and returns the findings
// sorted by position. Packages under testdata never reach here (the go
// tool refuses to list them).
func Lint(pkgs []*Package, analyzers []*Analyzer) []Finding {
	var out []Finding
	for _, az := range analyzers {
		for _, p := range pkgs {
			out = append(out, az.Run(p)...)
		}
	}
	sortFindings(out)
	return out
}

func sortFindings(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		return a.Message < b.Message
	})
}

// ---- shared AST/type helpers ----

// isMapType reports whether e has map type (after unaliasing).
func isMapType(info *types.Info, e ast.Expr) bool {
	t := info.TypeOf(e)
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}

// calleePkgFunc resolves a call to (package path, function name) for
// package-level functions, e.g. ("sync/atomic", "AddInt64"). Reports
// ok=false for methods, builtins, and unresolved calls.
func calleePkgFunc(info *types.Info, call *ast.CallExpr) (pkg, name string, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	obj := info.Uses[sel.Sel]
	fn, isFn := obj.(*types.Func)
	if !isFn || fn.Pkg() == nil {
		return "", "", false
	}
	if fn.Signature().Recv() != nil {
		return "", "", false
	}
	return fn.Pkg().Path(), fn.Name(), true
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

// pathMatch reports whether the package import path is, or is a child of,
// one of the given paths. A pattern also matches by suffix so testdata
// fixture packages (whose synthetic import paths are directory-shaped) can
// stand in for real packages.
func pathMatch(importPath string, pats []string) bool {
	for _, p := range pats {
		if importPath == p || strings.HasPrefix(importPath, p+"/") || strings.HasSuffix(importPath, p) {
			return true
		}
	}
	return false
}
