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
// A finding prints as "file:line: [analyzer] message". A site that is
// deliberate carries a "//lint:<analyzer>-ok <reason>" comment on the same
// line or the line above; the reason is mandatory — a bare annotation is
// itself a finding.
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
	Doc  string
	// Run reports raw findings; annotation suppression is the framework's
	// job (see Lint), so analyzers stay oblivious to the escape hatch.
	Run func(p *Package) []Finding
}

// Package is one type-checked package: what analyzers consume.
type Package struct {
	ImportPath string
	Fset       *token.FileSet
	Files      []*ast.File
	Types      *types.Package
	Info       *types.Info
}

// annotation is one //lint:<name>-ok <reason> comment.
type annotation struct {
	analyzer string
	reason   string
	used     bool
	pos      token.Position
}

const annotPrefix = "//lint:"

// annotationsFor indexes a file's lint annotations by line. One comment
// may carry several annotations ("//lint:a-ok reason //lint:b-ok reason"),
// so a single line flagged by two analyzers can excuse both; each
// annotation's reason runs up to the next "//lint:" marker.
func annotationsFor(fset *token.FileSet, file *ast.File) map[string][]*annotation {
	out := make(map[string][]*annotation)
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			text := c.Text
			if !strings.HasPrefix(text, annotPrefix) {
				continue
			}
			pos := fset.Position(c.Pos())
			key := fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
			for _, seg := range splitAnnotations(text) {
				name, reason, _ := strings.Cut(seg, " ")
				if !strings.HasSuffix(name, "-ok") {
					continue
				}
				out[key] = append(out[key], &annotation{
					analyzer: strings.TrimSuffix(name, "-ok"),
					reason:   strings.TrimSpace(reason),
					pos:      pos,
				})
			}
		}
	}
	return out
}

// splitAnnotations cuts a "//lint:…" comment into its annotation segments,
// each starting right after an annotPrefix occurrence.
func splitAnnotations(text string) []string {
	var segs []string
	rest := strings.TrimPrefix(text, annotPrefix)
	for {
		if i := strings.Index(rest, annotPrefix); i >= 0 {
			segs = append(segs, strings.TrimSpace(rest[:i]))
			rest = rest[i+len(annotPrefix):]
			continue
		}
		segs = append(segs, strings.TrimSpace(rest))
		return segs
	}
}

// Lint runs every analyzer over every package and returns the findings
// that survive annotation suppression, sorted by position. An annotation
// suppresses a finding of its analyzer on the same line or the line
// directly below (i.e. the comment sits on the flagged line or immediately
// above it). Annotations with no reason, and annotations that suppress
// nothing, are findings themselves: the escape hatch must stay auditable.
//
// Generated files (per the standard "Code generated … DO NOT EDIT."
// marker) are exempt end to end: no findings are reported in them and
// their annotations are neither honoured nor reported stale — generated
// code is the generator's problem, not the tree's. Packages under
// testdata never reach here at all (the go tool refuses to list them).
func Lint(pkgs []*Package, analyzers []*Analyzer) []Finding {
	annots := make(map[string][]*annotation)
	generated := make(map[string]bool)
	for _, p := range pkgs {
		for _, f := range p.Files {
			if ast.IsGenerated(f) {
				generated[p.Fset.Position(f.Pos()).Filename] = true
				continue
			}
			for k, v := range annotationsFor(p.Fset, f) {
				annots[k] = v
			}
		}
	}
	lookup := func(an string, pos token.Position) *annotation {
		for _, line := range []int{pos.Line, pos.Line - 1} {
			for _, a := range annots[fmt.Sprintf("%s:%d", pos.Filename, line)] {
				if a.analyzer == an {
					return a
				}
			}
		}
		return nil
	}

	var out []Finding
	for _, az := range analyzers {
		var raw []Finding
		for _, p := range pkgs {
			raw = append(raw, az.Run(p)...)
		}
		for _, f := range raw {
			if generated[f.Pos.Filename] {
				continue
			}
			if a := lookup(az.Name, f.Pos); a != nil {
				a.used = true
				if a.reason == "" {
					out = append(out, Finding{Pos: a.pos, Analyzer: az.Name,
						Message: "annotation //lint:" + az.Name + "-ok needs a reason"})
				}
				continue
			}
			out = append(out, f)
		}
	}
	known := make(map[string]bool, len(analyzers))
	for _, az := range analyzers {
		known[az.Name] = true
	}
	for _, as := range annots {
		for _, a := range as {
			if a.used {
				continue
			}
			msg := "unused annotation //lint:" + a.analyzer + "-ok (no finding here — stale?)"
			an := a.analyzer
			if !known[an] {
				msg = "annotation //lint:" + a.analyzer + "-ok names no known analyzer"
				an = "lint"
			}
			out = append(out, Finding{Pos: a.pos, Analyzer: an, Message: msg})
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
