package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"strings"
)

// Lockorder checks that the documented lock hierarchy is never acquired in
// reverse. The repo's one chain:
//
//	Session.appendMu → Cache.appendMu   (ingest vs snapshot serialization)
//
// Each chain orders an outer lock before an inner one; acquiring the outer
// while the inner is held inverts the hierarchy and can deadlock against
// the documented path. Two layers:
//
//   - Per-function: a linear source-order walk of each body that models
//     `defer x.Unlock()` as held until return and treats branches as
//     straight-line code.
//   - Interprocedural: every call site is checked against the module call
//     graph — holding an inner lock and calling anything that can
//     transitively reach an acquisition of an outer lock in the same chain
//     is a finding, with the witness call chain reported. Spawned (`go`)
//     calls are excluded: the spawned body runs on its own goroutine, so
//     its acquisitions are not ordered after the caller's held locks.
//     Calls through function values are not resolved (see Module) — hooks
//     crossing a lock boundary document the ordering at the hook site.
//
// A chain entry whose package is loaded but which nothing locks is itself a
// finding: a lock that was renamed or removed would otherwise silently stop
// being policed.
//
// Sites where the approximation is wrong carry //lint:lockorder-ok <reason>.
type LockID struct {
	// Pkg is an import-path pattern (prefix/suffix matched) of the package
	// defining the type; Type the named struct; Field the mutex field.
	Pkg, Type, Field string
}

// LockChain is one ordered hierarchy, outermost first.
type LockChain []LockID

// LockorderConfig lists the documented chains.
type LockorderConfig struct {
	Chains []LockChain
}

// NewLockorder builds the analyzer.
func NewLockorder(cfg LockorderConfig) *Analyzer {
	return &Analyzer{
		Name:      "lockorder",
		Doc:       "lock-hierarchy inversions (interprocedural)",
		RunModule: func(m *Module) []Finding { return runLockorder(m, cfg) },
	}
}

func runLockorder(m *Module, cfg LockorderConfig) []Finding {
	acq := lockAcquirers(m, cfg)
	out := staleLocks(m, cfg, acq)
	for _, key := range m.keys {
		out = append(out, lockWalk(m, cfg, m.funcs[key], acq)...)
	}
	return out
}

// staleLocks reports every configured lock that a loaded package should
// define but that no function acquires, at the type's declaration or, when
// the type is gone too, at the package clause.
func staleLocks(m *Module, cfg LockorderConfig, acq map[int][]lockReach) []Finding {
	locked := make(map[LockID]bool)
	for ci, chain := range cfg.Chains {
		for ri, id := range chain {
			if len(acq[ci][ri].sites) > 0 {
				locked[id] = true
			}
		}
	}
	var out []Finding
	for _, chain := range cfg.Chains {
		for _, id := range chain {
			if locked[id] {
				continue
			}
			locked[id] = true // report a lock named by two chains once
			for _, p := range m.Pkgs {
				if !id.inPackage(p.ImportPath) {
					continue
				}
				pos := p.Files[0].Package
				if obj := p.Types.Scope().Lookup(id.Type); obj != nil {
					pos = obj.Pos()
				}
				out = append(out, Finding{
					Pos:      p.Fset.Position(pos),
					Analyzer: "lockorder",
					Message: fmt.Sprintf("the configured lock hierarchy names %s.%s, which nothing in %s ever locks — renamed or removed? update the chains, or the lock is no longer policed",
						id.Type, id.Field, p.ImportPath),
				})
			}
		}
	}
	return out
}

// inPackage reports whether the package with this import path is the one
// the lock's type is declared in.
func (id LockID) inPackage(pkgPath string) bool {
	return pkgPath == id.Pkg || strings.HasSuffix(pkgPath, id.Pkg) || strings.HasPrefix(pkgPath, id.Pkg+"/")
}

// lockReach is, for one (chain, rank), the set of functions from which a
// direct acquisition of that lock is reachable over non-spawn call edges,
// plus the acquisition site inside each seed.
type lockReach struct {
	reach map[string]reachHop
	sites map[string]token.Pos // seed key → Lock() call position
}

// lockAcquirers scans every function for direct non-deferred acquisitions
// of each configured lock and closes over the reverse call graph: after
// this, acq[chain][rank].reach answers "can calling F end up acquiring
// this lock on the caller's goroutine?".
func lockAcquirers(m *Module, cfg LockorderConfig) map[int][]lockReach {
	acq := make(map[int][]lockReach, len(cfg.Chains))
	for ci, chain := range cfg.Chains {
		acq[ci] = make([]lockReach, len(chain))
		for ri := range chain {
			acq[ci][ri].sites = make(map[string]token.Pos)
		}
	}
	for _, key := range m.keys {
		mf := m.funcs[key]
		inDefer := 0
		var walk func(n ast.Node)
		walk = func(n ast.Node) {
			ast.Inspect(n, func(n ast.Node) bool {
				if ds, ok := n.(*ast.DeferStmt); ok {
					inDefer++
					walk(ds.Call)
					inDefer--
					return false
				}
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				ev, ok := classifyLockCall(mf.pkg, cfg, call)
				if !ok || !ev.acquire || inDefer > 0 {
					return true
				}
				if _, seen := acq[ev.chain][ev.rank].sites[key]; !seen {
					acq[ev.chain][ev.rank].sites[key] = call.Pos()
				}
				return true
			})
		}
		walk(mf.decl.Body)
	}
	for ci := range cfg.Chains {
		for ri := range cfg.Chains[ci] {
			seeds := make(map[string]token.Pos, len(acq[ci][ri].sites))
			for k, p := range acq[ci][ri].sites {
				seeds[k] = p
			}
			acq[ci][ri].reach = m.reverseReach(seeds)
		}
	}
	return acq
}

// lockEvent is one Lock/Unlock call on a configured mutex.
type lockEvent struct {
	chain, rank int
	acquire     bool
	deferred    bool
	call        *ast.CallExpr
}

func lockWalk(m *Module, cfg LockorderConfig, mf *moduleFunc, acq map[int][]lockReach) []Finding {
	p := mf.pkg
	var out []Finding
	// held[chain] is the set of held ranks, in acquisition order.
	held := make(map[int][]int)
	name := func(chain, rank int) string {
		id := cfg.Chains[chain][rank]
		return id.Type + "." + id.Field
	}
	// Call-graph edges of this function, keyed by call position, so the
	// source-order walk can consult resolved callees as it passes each site.
	edges := make(map[token.Pos][]callSite)
	for _, cs := range mf.calls {
		edges[cs.pos] = append(edges[cs.pos], cs)
	}
	inDefer := 0
	var walk func(n ast.Node)
	walk = func(n ast.Node) {
		ast.Inspect(n, func(n ast.Node) bool {
			if ds, ok := n.(*ast.DeferStmt); ok {
				inDefer++
				walk(ds.Call)
				inDefer--
				return false
			}
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if ev, ok := classifyLockCall(p, cfg, call); ok {
				ev.deferred = inDefer > 0
				if ev.acquire {
					if ev.deferred {
						return true // defer x.Lock() — nonsense, ignore
					}
					for _, r := range held[ev.chain] {
						if r > ev.rank {
							out = append(out, Finding{
								Pos:      p.Fset.Position(call.Pos()),
								Analyzer: "lockorder",
								Message: fmt.Sprintf("acquires %s while holding %s — the documented hierarchy is %s before %s (annotate //lint:lockorder-ok <reason> if the analysis is wrong)",
									name(ev.chain, ev.rank), name(ev.chain, r),
									name(ev.chain, ev.rank), name(ev.chain, r)),
							})
						}
					}
					held[ev.chain] = append(held[ev.chain], ev.rank)
				} else if !ev.deferred {
					// Explicit unlock releases the most recent matching rank;
					// a deferred unlock keeps the lock held to function end.
					hs := held[ev.chain]
					for i := len(hs) - 1; i >= 0; i-- {
						if hs[i] == ev.rank {
							held[ev.chain] = append(hs[:i], hs[i+1:]...)
							break
						}
					}
				}
				return true
			}
			if inDefer > 0 {
				return true
			}
			// Interprocedural: does any resolved callee reach an acquisition
			// that would rank above what we hold right now?
			for ci := range cfg.Chains {
				hs := held[ci]
				if len(hs) == 0 {
					continue
				}
				maxHeld := hs[0]
				for _, r := range hs[1:] {
					if r > maxHeld {
						maxHeld = r
					}
				}
				for ra := 0; ra < maxHeld; ra++ {
					if f, ok := lockCallFinding(m, cfg, mf, call, edges, ci, ra, maxHeld, acq); ok {
						out = append(out, f)
					}
				}
			}
			return true
		})
	}
	walk(mf.decl.Body)
	return out
}

// lockCallFinding reports an inversion at a call site when one of its
// resolved, non-spawned callees can reach an acquisition of (chain, rank)
// while the caller holds heldRank > rank. The first matching callee (edge
// order = widening order, deterministic) supplies the witness chain.
func lockCallFinding(m *Module, cfg LockorderConfig, mf *moduleFunc, call *ast.CallExpr, edges map[token.Pos][]callSite, chain, rank, heldRank int, acq map[int][]lockReach) (Finding, bool) {
	lr := acq[chain][rank]
	for _, cs := range edges[call.Pos()] {
		if cs.spawn {
			continue
		}
		hop, ok := lr.reach[cs.callee]
		if !ok {
			continue
		}
		// Walk the witness path down to the seed that performs the Lock().
		chainKeys := []string{shortFuncKey(mf.key), shortFuncKey(cs.callee)}
		at := cs.callee
		for hop.next != "" {
			chainKeys = append(chainKeys, shortFuncKey(hop.next))
			at = hop.next
			hop = lr.reach[at]
		}
		outer := cfg.Chains[chain][rank]
		inner := cfg.Chains[chain][heldRank]
		lockName := outer.Type + "." + outer.Field
		heldName := inner.Type + "." + inner.Field
		sitePos := mf.pkg.Fset.Position(lr.sites[at])
		chainKeys = append(chainKeys, fmt.Sprintf("%s.Lock", lockName))
		return Finding{
			Pos:      mf.pkg.Fset.Position(call.Pos()),
			Analyzer: "lockorder",
			Message: fmt.Sprintf("calls %s while holding %s, and the callee can acquire %s (%s:%d) — call chain %s; the documented hierarchy is %s before %s (annotate //lint:lockorder-ok <reason> if the analysis is wrong)",
				shortFuncKey(cs.callee), heldName, lockName,
				baseName(sitePos.Filename), sitePos.Line,
				strings.Join(chainKeys, " → "), lockName, heldName),
		}, true
	}
	return Finding{}, false
}

// baseName is filepath.Base without importing path/filepath here: chain
// messages keep only the file's base name so findings are stable across
// checkouts.
func baseName(p string) string {
	if i := strings.LastIndexByte(p, '/'); i >= 0 {
		return p[i+1:]
	}
	return p
}

// classifyLockCall matches <expr>.<Field>.Lock()/RLock()/Unlock()/RUnlock()
// against the configured chains.
func classifyLockCall(p *Package, cfg LockorderConfig, call *ast.CallExpr) (lockEvent, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return lockEvent{}, false
	}
	var acquire bool
	switch sel.Sel.Name {
	case "Lock", "RLock":
		acquire = true
	case "Unlock", "RUnlock":
	default:
		return lockEvent{}, false
	}
	fieldSel, ok := sel.X.(*ast.SelectorExpr)
	if !ok {
		return lockEvent{}, false
	}
	field, owner := fieldOf(p.Info, fieldSel)
	if field == nil || owner == nil || owner.Obj().Pkg() == nil {
		return lockEvent{}, false
	}
	pkgPath := owner.Obj().Pkg().Path()
	for ci, chain := range cfg.Chains {
		for ri, id := range chain {
			if field.Name() != id.Field || owner.Obj().Name() != id.Type {
				continue
			}
			if id.inPackage(pkgPath) {
				return lockEvent{chain: ci, rank: ri, acquire: acquire, call: call}, true
			}
		}
	}
	return lockEvent{}, false
}
