package server

import (
	"errors"
	"fmt"
	"io"
	"strconv"
	"time"

	"plasmahd/internal/blob"
)

// Session lifecycle: where does session "s7" live right now?
//
// Manager.slots answers under Manager.mu, and every ID is in exactly one of
// three states:
//
//	absent    no slot           only the blob store knows the ID, if anything does
//	resident  slot.ms set       in memory; Acquire hands it out busy-marked
//	moving    slot.moving set   one goroutine owns the ID while it does blob I/O
//
// A knowledge cache is never lost, duplicated or resurrected because every
// transition starts and ends under Manager.mu, does its blob I/O with the
// lock released, and holds the ID in moving in between:
//
//	revive   absent → resident     Acquire misses: Get + decode, then admit
//	spill    resident → absent     capacity eviction of the LRU idle session,
//	                               and Unload(id, true), the cluster handoff: put
//	drop     resident → absent     Unload(id, false): a stale copy superseded
//	                               by a handoff, nothing written
//	persist  resident → resident   Persist (?persist=1, shutdown save): put; the
//	                               slot is moving but keeps its session, which
//	                               stays usable
//	delete   any → absent          Delete: session unlinked, blob removed
//
// Whoever needs an ID that is moving waits for the owner to settle it and
// looks again (settledLocked); an owner never waits, so waits cannot cycle.
// So a DELETE cannot slip between an eviction's unlink and its put, or into
// a persist's put; concurrent requests for a spilled session decode its
// blob once; and a request for an eviction victim waits for the spill and
// revives it instead of missing. Create and AdmitNew mint IDs nobody else
// can name yet, so they insert a resident slot directly. With persistence
// off (store == nil) the transitions run without the I/O.
//
// A save encodes the session straight into the store's streaming put
// (blob.Store.PutFunc), so no whole snapshot is ever buffered. The store
// contract makes that put atomic and a failed one a no-op, so a crash or an
// encode failure mid-save leaves the previous snapshot intact, and the
// codec's CRC catches anything else. Every node of a cluster mounts the
// same store, so "spilled here" means "revivable anywhere" (see cluster.go).

// slot is one session ID's entry in the manager.
type slot struct {
	ms     *ManagedSession // the resident session, nil while it is on its way in or out
	moving chan struct{}   // non-nil while a goroutine owns the ID; closed when it settles
}

// snapExt is the session snapshot key suffix: one blob per session, key
// "<id>.snap", in the session snapshot format (see core.Session.Snapshot).
const snapExt = ".snap"

// stateIDNum parses an ID a plasmad node could have minted, "s<n>", and
// returns n; ok is false for any other string.
func stateIDNum(id string) (n int64, ok bool) {
	if len(id) < 2 || id[0] != 's' {
		return 0, false
	}
	u, err := strconv.ParseUint(id[1:], 10, 63)
	return int64(u), err == nil
}

// validStateID reports whether id is one a plasmad node could have minted,
// the only IDs allowed to name snapshot blobs — nothing path-like from a URL
// ever becomes a storage key.
func validStateID(id string) bool {
	_, ok := stateIDNum(id)
	return ok
}

// stateKey maps a session ID to its blob-store key.
func stateKey(id string) string { return id + snapExt }

// persists reports whether id can have a blob: there is a store, and the ID
// is fit to name a key in it.
func (m *Manager) persists(id string) bool { return m.store != nil && validStateID(id) }

// settledLocked returns id's slot once no goroutine owns it: nil for an
// absent ID, a resident slot otherwise. Called and returns with m.mu held,
// released while it waits. The channel is captured under the lock because
// the owner clears the field when it settles.
func (m *Manager) settledLocked(id string) *slot {
	for {
		sl := m.slots[id]
		if sl == nil || sl.moving == nil {
			return sl
		}
		moving := sl.moving
		m.mu.Unlock()
		<-moving
		m.mu.Lock()
	}
}

// claimLocked makes the caller the owner of a settled ID, giving an absent
// one a slot to wait on.
func (m *Manager) claimLocked(id string) *slot {
	sl := m.slots[id]
	if sl == nil {
		sl = &slot{}
		m.slots[id] = sl
	}
	sl.moving = make(chan struct{})
	return sl
}

// settleLocked ends the caller's ownership of id: a slot left without a
// session becomes absent, and waiters look again.
func (m *Manager) settleLocked(id string) {
	sl := m.slots[id]
	if sl.ms == nil {
		delete(m.slots, id)
	}
	close(sl.moving)
	sl.moving = nil
}

func (m *Manager) settle(id string) {
	m.mu.Lock()
	m.settleLocked(id)
	m.mu.Unlock()
}

// detachLocked claims a settled ID and takes its session, if it has one, out
// of its slot: the start of every transition to absent. The caller owns the
// ID and the returned session until it settles. The departing counters are
// folded into the retired accumulators so manager-wide totals stay monotone.
func (m *Manager) detachLocked(id string) *ManagedSession {
	sl := m.claimLocked(id)
	ms := sl.ms
	sl.ms = nil
	if ms != nil {
		h, mi := ms.Session.CueCacheStats()
		m.retiredCueHits.Add(h)
		m.retiredCueMisses.Add(mi)
		m.retiredIdxRebuilds.Add(ms.Session.Cache.IndexRebuilds())
	}
	return ms
}

// unload finishes the transition detachLocked started, spilling the session
// to the store first when asked to and able. unload(nil, …) is a no-op, so
// admissions pass makeRoomLocked's victim straight through.
func (m *Manager) unload(ms *ManagedSession, spill bool) (err error) {
	if ms == nil {
		return nil
	}
	if spill && m.store != nil {
		err = m.spill(ms)
	}
	m.settle(ms.ID)
	return err
}

// makeRoomLocked keeps an admission within capacity: when every place is
// taken it detaches the least-recently-used idle session and returns it for
// the caller to unload once the lock is released — a spill is a full session
// encode plus a blob write, far too slow to stall every Acquire for. One
// admission evicts at most one session, so residency never exceeds capacity.
func (m *Manager) makeRoomLocked() (*ManagedSession, error) {
	resident := 0
	var lru *slot
	for _, sl := range m.slots {
		if sl.ms == nil {
			continue
		}
		resident++
		// A session being persisted is held by the request persisting it.
		if sl.ms.Idle() && (lru == nil || sl.ms.lastUsed.Load() < lru.ms.lastUsed.Load()) {
			lru = sl
		}
	}
	if resident < m.capacity {
		return nil, nil
	}
	if lru == nil {
		return nil, ErrCapacity
	}
	m.stats.SessionsEvicted.Add(1)
	return m.detachLocked(lru.ms.ID), nil
}

// admit makes a session with a freshly minted ID resident, evicting (and
// spilling, when there is a store) the LRU idle session at capacity, here in
// the admitting request's goroutine. A failed spill is counted and logged.
func (m *Manager) admit(ms *ManagedSession) error {
	ms.touch()
	m.mu.Lock()
	victim, err := m.makeRoomLocked()
	if err == nil {
		m.slots[ms.ID] = &slot{ms: ms}
	}
	m.mu.Unlock()
	_ = m.unload(victim, true)
	return err
}

// Acquire returns the session marked busy (exempt from eviction) and
// recently used, reviving it from the blob store when it is not resident:
// spilled by eviction, handed off by a rebalance, or saved by a departed
// node. Callers must call the returned release exactly once.
func (m *Manager) Acquire(id string) (*ManagedSession, func(), error) {
	m.mu.Lock()
	sl := m.slots[id]
	if sl == nil || sl.ms == nil {
		// Not waited for: a persist in flight, whose slot keeps its session.
		sl = m.settledLocked(id)
	}
	if sl == nil {
		return m.revive(id)
	}
	ms := sl.ms
	// Mark busy under the lock so eviction cannot race the handoff.
	ms.active.Add(1)
	ms.touch()
	m.mu.Unlock()
	return ms, ms.release, nil
}

// revive is Acquire's absent → resident transition, and through Acquire the
// warm boot's. Called with m.mu held and id absent; releases the lock.
func (m *Manager) revive(id string) (*ManagedSession, func(), error) {
	if !m.persists(id) {
		m.mu.Unlock()
		return nil, nil, ErrNotFound
	}
	sl := m.claimLocked(id)
	m.mu.Unlock()

	ms, err := m.load(id)

	m.mu.Lock()
	var victim *ManagedSession
	if err == nil {
		victim, err = m.makeRoomLocked()
	}
	if err == nil {
		ms.active.Add(1)
		ms.touch()
		sl.ms = ms
	}
	m.settleLocked(id)
	m.mu.Unlock()
	_ = m.unload(victim, true) // a failed spill is counted and logged there

	if err == nil {
		m.bumpNextID(id)
		m.stats.SessionsRestored.Add(1)
		m.logf("revived session %s from the blob store (%d cached pairs, %d probes)",
			id, ms.Session.CachedPairs(), ms.Session.ProbeCount())
		return ms, ms.release, nil
	}
	if !errors.Is(err, blob.ErrNotFound) {
		m.logf("revive %s failed: %v", id, err)
	}
	if !errors.Is(err, ErrCapacity) {
		err = ErrNotFound // a blob that is missing or unreadable is no session
	}
	return nil, nil, err
}

// Delete removes a session wherever it lives — resident, spilled, or both —
// so it neither answers again nor resurrects on the next boot or on another
// node. A request still holding it finishes against the unlinked copy.
func (m *Manager) Delete(id string) error {
	m.mu.Lock()
	if m.settledLocked(id) == nil && !m.persists(id) {
		m.mu.Unlock()
		return ErrNotFound
	}
	ms := m.detachLocked(id) // nil: at most a blob is left of it
	m.mu.Unlock()

	removed := false
	if m.persists(id) {
		var err error
		if removed, err = m.store.Delete(stateKey(id)); err != nil {
			m.logf("remove state %s: %v", id, err)
		}
	}
	m.settle(id)
	if ms == nil && !removed {
		return ErrNotFound
	}
	m.stats.SessionsDeleted.Add(1)
	return nil
}

// Unload takes a resident, idle session out of memory without deleting it:
// with spill, through the blob store (the cluster handoff — whoever revives
// it next gets this node's evidence); without, dropped (a stale copy the
// store already supersedes). Neither a delete nor an eviction. It reports
// whether a session was unloaded, and the spill's error. A busy session is
// left alone: in-flight requests keep their evidence, the caller retries.
func (m *Manager) Unload(id string, spill bool) (bool, error) {
	m.mu.Lock()
	sl := m.settledLocked(id)
	if sl == nil || !sl.ms.Idle() {
		m.mu.Unlock()
		return false, nil
	}
	ms := m.detachLocked(id)
	m.mu.Unlock()
	return true, m.unload(ms, spill)
}

// Persist writes a held session's snapshot to the blob store and returns
// its size. The session stays resident and usable; only a Delete (or a
// second Persist) of the same ID waits for the write. ErrNotFound: deleted
// while the caller held it; nothing is written, so the delete stays one.
func (m *Manager) Persist(ms *ManagedSession) (int, error) {
	m.mu.Lock()
	sl := m.settledLocked(ms.ID)
	if sl == nil || sl.ms != ms {
		m.mu.Unlock()
		return 0, ErrNotFound
	}
	m.claimLocked(ms.ID)
	m.mu.Unlock()
	n, err := m.save(ms)
	m.settle(ms.ID)
	return n, err
}

// save encodes one session straight into the store and returns its size.
func (m *Manager) save(ms *ManagedSession) (int, error) {
	var n int64
	err := m.store.PutFunc(stateKey(ms.ID), func(w io.Writer) error {
		cw := &countWriter{w: w}
		err := ms.Session.Snapshot(cw)
		n = cw.n
		if err != nil {
			return fmt.Errorf("snapshot %s: %w", ms.ID, err)
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	m.snapBytesOut.Add(n)
	return int(n), nil
}

// countWriter counts the bytes written through it.
type countWriter struct {
	w io.Writer
	n int64
}

func (cw *countWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.n += int64(n)
	return n, err
}

// spill saves a session that is leaving memory. A failure is counted in
// plasmad_spill_failures_total and logged with the lost pair count, not
// fatal: an eviction that cannot spill degrades to a discard, but never
// silently.
func (m *Manager) spill(ms *ManagedSession) error {
	n, err := m.save(ms)
	if err != nil {
		m.stats.SpillFailures.Add(1)
		m.logf("spill %s failed, %d cached pairs lost: %v", ms.ID, ms.Session.CachedPairs(), err)
		return err
	}
	m.stats.SessionsSpilled.Add(1)
	m.logf("spilled session %s to the blob store (%d bytes, %d cached pairs)", ms.ID, n, ms.Session.CachedPairs())
	return nil
}

// load restores one session from its snapshot blob, dataset rows included.
func (m *Manager) load(id string) (*ManagedSession, error) {
	rc, err := m.store.Get(stateKey(id))
	if err != nil {
		return nil, err
	}
	defer rc.Close()
	sess, _, err := m.restore(rc)
	if err != nil {
		return nil, err
	}
	return &ManagedSession{ID: id, Session: sess, Created: time.Now()}, nil
}
