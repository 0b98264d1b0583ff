package lint

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/types"
)

// Httperr flags error responses in the server package that bypass the JSON
// error envelope: calls to http.Error, and bare WriteHeader with a
// constant 4xx/5xx status. Every non-2xx response must go through the
// envelope helper so clients always parse one error shape and the error
// counters in /v1/stats and /metrics see it — PR 6 existed because
// net/http's default text 404 did neither, leaving real error traffic
// invisible to both surfaces.
//
// The envelope helpers themselves are allowlisted by function name.
// WriteHeader with a non-constant status (the proxy relaying an upstream
// code, the statusWriter wrapper) is out of scope: the analyzer polices
// hand-written error paths, not forwarding machinery.
type HTTPErrConfig struct {
	// Packages are the server packages the analyzer applies to.
	Packages []string
	// AllowFuncs are function (or method) names allowed to touch the
	// response writer directly — the envelope implementation.
	AllowFuncs []string
}

// NewHTTPErr builds the analyzer.
func NewHTTPErr(cfg HTTPErrConfig) *Analyzer {
	return &Analyzer{
		Name: "httperr",
		Run:  func(p *Package) []Finding { return runHTTPErr(p, cfg) },
	}
}

func runHTTPErr(p *Package, cfg HTTPErrConfig) []Finding {
	if !pathMatch(p.ImportPath, cfg.Packages) {
		return nil
	}
	allowed := make(map[string]bool, len(cfg.AllowFuncs))
	for _, f := range cfg.AllowFuncs {
		allowed[f] = true
	}
	var out []Finding
	for _, file := range p.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || allowed[fd.Name.Name] {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if pkg, name, ok := calleePkgFunc(p.Info, call); ok && pkg == "net/http" && name == "Error" {
					out = append(out, Finding{
						Pos:      p.Fset.Position(call.Pos()),
						Analyzer: "httperr",
						Message:  "http.Error bypasses the JSON envelope and its error counters — use writeError",
					})
					return true
				}
				if status, ok := errorWriteHeader(p, call); ok {
					out = append(out, Finding{
						Pos:      p.Fset.Position(call.Pos()),
						Analyzer: "httperr",
						Message: fmt.Sprintf("bare WriteHeader(%d) bypasses the JSON envelope and its error counters — use writeError",
							status),
					})
				}
				return true
			})
		}
	}
	return out
}

// errorWriteHeader reports whether call is <w>.WriteHeader(c) with a
// constant status c >= 400.
func errorWriteHeader(p *Package, call *ast.CallExpr) (int64, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "WriteHeader" || len(call.Args) != 1 {
		return 0, false
	}
	// Only method calls count: a package-level WriteHeader is something else.
	if fn, ok := p.Info.Uses[sel.Sel].(*types.Func); !ok || fn.Signature().Recv() == nil {
		return 0, false
	}
	tv, ok := p.Info.Types[call.Args[0]]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.Int {
		return 0, false
	}
	status, ok := constant.Int64Val(tv.Value)
	if !ok || status < 400 {
		return 0, false
	}
	return status, true
}
