// Package lockordertest is the lockorder golden fixture: the documented
// hierarchy here is Server.stateMu before Manager.mu (mirroring the real
// server's revive/spill coordination); acquiring them in reverse can
// deadlock against any compliant path.
package lockordertest

import "sync"

type Server struct{ stateMu sync.Mutex }

type Manager struct{ mu sync.Mutex }

type world struct {
	srv Server
	mgr Manager
}

// rightOrder follows the hierarchy.
func rightOrder(w *world) {
	w.srv.stateMu.Lock()
	w.mgr.mu.Lock()
	w.mgr.mu.Unlock()
	w.srv.stateMu.Unlock()
}

// inverted is the minimal deadlock: inner held while acquiring outer.
func inverted(w *world) {
	w.mgr.mu.Lock()
	w.srv.stateMu.Lock() // want "acquires Server.stateMu while holding Manager.mu"
	w.srv.stateMu.Unlock()
	w.mgr.mu.Unlock()
}

// releasedFirst is sequential, not nested: no inversion.
func releasedFirst(w *world) {
	w.mgr.mu.Lock()
	w.mgr.mu.Unlock()
	w.srv.stateMu.Lock()
	w.srv.stateMu.Unlock()
}

// deferredInner keeps the inner lock held to function end, so the later
// outer acquire still inverts the hierarchy.
func deferredInner(w *world) {
	w.mgr.mu.Lock()
	defer w.mgr.mu.Unlock()
	w.srv.stateMu.Lock() // want "acquires Server.stateMu while holding Manager.mu"
	w.srv.stateMu.Unlock()
}

// annotated shows the escape hatch for a path the linear model gets wrong.
func annotated(w *world) {
	w.mgr.mu.Lock()
	//lint:lockorder-ok single-threaded startup; no concurrent stateMu holder exists yet
	w.srv.stateMu.Lock()
	w.srv.stateMu.Unlock()
	w.mgr.mu.Unlock()
}

// ---- interprocedural cases: a per-function walk sees nothing wrong in any
// single body below; only the call graph exposes the inversion. ----

// twoHop is the seeded two-hop inversion: inner held, then a call whose
// transitive callee acquires the outer lock.
func twoHop(w *world) {
	w.mgr.mu.Lock()
	hopOne(w) // want "calls lockorder.hopOne while holding Manager.mu, and the callee can acquire Server.stateMu (lockorder.go:76) — call chain lockorder.twoHop → lockorder.hopOne → lockorder.hopTwo → Server.stateMu.Lock;"
	w.mgr.mu.Unlock()
}

// hopOne only forwards; it holds nothing itself.
func hopOne(w *world) { hopTwo(w) }

// hopTwo acquires the outer lock with nothing held — clean in isolation.
func hopTwo(w *world) {
	w.srv.stateMu.Lock()
	w.srv.stateMu.Unlock()
}

// spawned hands the outer acquisition to a new goroutine: unordered with
// the caller's held lock, so not an inversion.
func spawned(w *world) {
	w.mgr.mu.Lock()
	go hopTwo(w)
	w.mgr.mu.Unlock()
}

// callAfterRelease is sequential: the inner lock is gone by the call.
func callAfterRelease(w *world) {
	w.mgr.mu.Lock()
	w.mgr.mu.Unlock()
	hopOne(w)
}

// lockInner acquires the inner lock with nothing held.
func lockInner(w *world) { w.mgr.mu.Lock(); w.mgr.mu.Unlock() }

// outerThenCallInner follows the hierarchy through a call: fine.
func outerThenCallInner(w *world) {
	w.srv.stateMu.Lock()
	lockInner(w)
	w.srv.stateMu.Unlock()
}

// ---- stale chain: the fixture config also orders Retired.oldMu before
// Retired.newMu, but oldMu was "renamed away" — nothing locks it, so the
// entry polices nothing and is reported where the type is declared. ----

type Retired struct{ oldMu, newMu sync.Mutex } // want "names Retired.oldMu, which nothing in"

func lockNew(r *Retired) {
	r.newMu.Lock()
	r.newMu.Unlock()
}
