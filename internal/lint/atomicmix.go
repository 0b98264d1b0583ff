package lint

import (
	"fmt"
	"go/ast"
	"strings"
)

// NewAtomicmix flags every call to a function-style sync/atomic operation
// (atomic.AddInt64(&s.n, 1) and friends). A variable accessed that way is
// still an ordinary int64 that any other line can read or write bare — a
// data race the race detector only reports when the schedule cooperates,
// which is how PR 5 found SRP.gaussRow writing a cache slot under
// atomic.CompareAndSwap on one path and reading it bare on another. The
// typed atomics (atomic.Int64, atomic.Pointer[T]) have no bare access to
// mix with, so the tree uses only those.
func NewAtomicmix() *Analyzer {
	return &Analyzer{
		Name: "atomicmix",
		Doc:  "function-style sync/atomic calls (typed atomics only)",
		Run:  runAtomicmix,
	}
}

func runAtomicmix(p *Package) []Finding {
	var out []Finding
	for _, file := range p.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if pkg, name, ok := calleePkgFunc(p.Info, call); ok && pkg == "sync/atomic" && isAtomicOp(name) {
				out = append(out, Finding{
					Pos:      p.Fset.Position(call.Pos()),
					Analyzer: "atomicmix",
					Message: fmt.Sprintf("function-style atomic.%s leaves its operand open to non-atomic access — use a typed atomic (atomic.Int64, atomic.Pointer) or annotate //lint:atomicmix-ok <reason>",
						name),
				})
			}
			return true
		})
	}
	return out
}

// isAtomicOp reports whether name is a sync/atomic access function.
func isAtomicOp(name string) bool {
	for _, prefix := range []string{"Load", "Store", "Add", "Swap", "CompareAndSwap", "Or", "And"} {
		if strings.HasPrefix(name, prefix) {
			return true
		}
	}
	return false
}
