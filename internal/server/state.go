package server

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"plasmahd/internal/blob"
	"plasmahd/internal/core"
)

// State persistence: when the server has a blob store (Config.StateDir
// configures the local-directory one; Config.Store injects any other),
// plasmad's knowledge caches survive the process. One blob per session,
// key "<id>.snap", in the session snapshot format (see
// core.Session.Snapshot):
//
//   - graceful shutdown saves every resident session (SaveState);
//   - boot loads saved sessions this node owns, up to capacity (LoadState);
//   - capacity eviction spills the victim to the store instead of
//     discarding it;
//   - a request for a spilled session revives it from the store
//     transparently;
//   - DELETE removes the session's blob along with the session;
//   - in cluster mode, a rebalance hands a session off through the store
//     (see cluster.go) and the new owner revives it on first touch.
//
// The store contract makes Put atomic, so a crash mid-save leaves the
// previous snapshot intact rather than a truncated one — and the codec's
// CRC catches anything else. Because every node of a cluster mounts the
// same store, "spilled here" means "revivable anywhere".

// snapExt is the session snapshot key suffix.
const snapExt = ".snap"

// validStateID reports whether id is one a plasmad node could have minted
// ("s<n>"), the only IDs allowed to name snapshot blobs — nothing
// path-like from a URL ever becomes a storage key.
func validStateID(id string) bool {
	if len(id) < 2 || id[0] != 's' {
		return false
	}
	_, err := strconv.ParseUint(id[1:], 10, 63)
	return err == nil
}

// stateKey maps a session ID to its blob-store key.
func stateKey(id string) string { return id + snapExt }

// saveSession writes one session's snapshot to the blob store and returns
// the snapshot size.
func (s *Server) saveSession(ms *ManagedSession) (int, error) {
	var buf bytes.Buffer
	if err := ms.Session.Snapshot(&buf); err != nil {
		return 0, fmt.Errorf("snapshot %s: %w", ms.ID, err)
	}
	if err := s.blobs.Put(stateKey(ms.ID), buf.Bytes()); err != nil {
		return 0, err
	}
	return buf.Len(), nil
}

// spillSession is the manager's eviction hook (and the rebalance handoff's
// persist step): write the victim's cache to the blob store instead of
// discarding it. Errors are counted in plasmad_spill_failures_total and
// logged with the lost pair count, not fatal — an eviction that cannot
// spill degrades to the old discard behaviour, but never silently. It runs
// under stateMu: the victim is already unlinked from the manager, so a
// DELETE racing this window finds nothing to remove, and only the
// tombstone check here stops the spill from writing the blob back after
// the delete returned.
func (s *Server) spillSession(ms *ManagedSession) error {
	s.stateMu.Lock()
	defer s.stateMu.Unlock()
	if s.deleted[ms.ID] {
		s.logf("spill %s skipped: session was deleted", ms.ID)
		return fmt.Errorf("session %s deleted during eviction", ms.ID)
	}
	n, err := s.saveSession(ms)
	if err != nil {
		s.mgr.stats.SpillFailures.Add(1)
		s.logf("spill %s failed, %d cached pairs lost: %v", ms.ID, ms.Session.CachedPairs(), err)
		return err
	}
	s.snapBytesOut.Add(int64(n))
	s.logf("spilled session %s to the blob store (%d bytes, %d cached pairs)", ms.ID, n, ms.Session.CachedPairs())
	return nil
}

// markDeleted tombstones an explicitly deleted session ID so an in-flight
// eviction spill cannot write its blob back (the spill runs on a victim
// already unlinked from the manager, outside anything the DELETE can
// observe). Only IDs the daemon could actually have minted are recorded, so
// DELETE spam on fabricated IDs cannot grow the set beyond sessions ever
// created. Callers hold stateMu.
func (s *Server) markDeleted(id string) {
	if s.blobs == nil || !validStateID(id) {
		return
	}
	if n, _ := strconv.ParseUint(id[1:], 10, 63); int64(n) > s.mgr.nextID.Load() {
		return
	}
	s.deleted[id] = true
}

// removeSessionState deletes a session's snapshot blob, so an explicitly
// deleted session does not resurrect on the next boot. It reports whether a
// blob was actually removed (a spilled, non-resident session exists only as
// its blob).
func (s *Server) removeSessionState(id string) bool {
	if s.blobs == nil || !validStateID(id) {
		return false
	}
	removed, err := s.blobs.Delete(stateKey(id))
	if err != nil {
		s.logf("remove state %s: %v", id, err)
	}
	return removed
}

// loadSessionBlob restores one session from its snapshot blob, rehydrating
// the dataset from the embedded spec or data.
func (s *Server) loadSessionBlob(id string) (*ManagedSession, error) {
	rc, err := s.blobs.Get(stateKey(id))
	if err != nil {
		return nil, err
	}
	defer rc.Close()
	// The decoder reads a field at a time; buffer above the tracker so the
	// blob is read in blocks and body.n still counts the blob's bytes.
	body := &maxBytesTracker{r: rc}
	sess, err := core.RestoreSession(bufio.NewReader(body), nil)
	s.snapBytesIn.Add(body.n)
	if err != nil {
		return nil, err
	}
	return &ManagedSession{
		ID:      id,
		Spec:    sess.Spec,
		Session: sess,
		Created: time.Now(),
	}, nil
}

// revive brings a spilled session back from the blob store under its
// original ID. It reports whether the ID is worth re-acquiring: true on
// successful admission and on ErrConflict (a racing request already
// revived it).
//
// Coordination with DELETE (see Server.stateMu): the blob load runs under
// stateMu so it cannot race the delete's blob removal, but the admission
// deliberately does not — AdmitAs can evict, and the eviction spill takes
// stateMu itself, so holding it across the admit would self-deadlock. A
// DELETE landing in that unlocked window is caught by the tombstone
// re-check after the admit, which sweeps the just-revived session.
func (s *Server) revive(id string) bool {
	if s.blobs == nil || !validStateID(id) {
		return false
	}
	s.stateMu.Lock()
	if s.deleted[id] {
		s.stateMu.Unlock()
		return false
	}
	ms, err := s.loadSessionBlob(id)
	s.stateMu.Unlock()
	if err != nil {
		if !errors.Is(err, blob.ErrNotFound) {
			s.logf("revive %s failed: %v", id, err)
		}
		return false
	}
	if err := s.mgr.AdmitAs(ms, id); err != nil {
		if errors.Is(err, ErrConflict) {
			return true
		}
		s.logf("revive %s not admitted: %v", id, err)
		return false
	}
	s.stateMu.Lock()
	deleted := s.deleted[id]
	s.stateMu.Unlock()
	if deleted {
		_ = s.mgr.Remove(id)
		return false
	}
	s.logf("revived session %s from the blob store (%d cached pairs)", id, ms.Session.CachedPairs())
	return true
}

// SaveState snapshots every resident session into the blob store — the
// graceful-shutdown path. In cluster mode this doubles as the departing
// node's half of rebalancing: its sessions land in the shared store, and
// whichever node owns them next revives them on first touch. The context
// bounds the whole sweep (the configurable -shutdown-timeout budget): once
// it expires, every remaining session is logged as lost instead of
// silently skipped. It returns how many sessions were saved, how many
// failed (save errors plus deadline misses), and the first error
// encountered; saving continues past individual failures but stops at the
// deadline.
func (s *Server) SaveState(ctx context.Context) (saved, failed int, firstErr error) {
	if s.blobs == nil {
		return 0, 0, nil
	}
	sessions := s.mgr.List()
	for i, ms := range sessions {
		if err := ctx.Err(); err != nil {
			for _, lost := range sessions[i:] {
				s.logf("save state %s: not saved, shutdown deadline exceeded (%d cached pairs lost)",
					lost.ID, lost.Session.CachedPairs())
			}
			failed += len(sessions) - i
			if firstErr == nil {
				firstErr = fmt.Errorf("shutdown deadline: %w", err)
			}
			break
		}
		n, err := s.saveSession(ms)
		if err != nil {
			s.logf("save state %s: %v", ms.ID, err)
			failed++
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		s.snapBytesOut.Add(int64(n))
		saved++
	}
	return saved, failed, firstErr
}

// LoadState restores saved sessions from the blob store — the warm-boot
// path. Only sessions this node owns are admitted (in single-node mode
// that is all of them); snapshots belonging to other ring members stay in
// the store for their owners to revive. Sessions are admitted in ID order
// until the manager is full; the rest stay in the store, revivable on
// demand. Corrupt or unreadable snapshots are logged and skipped (boot
// never fails on a bad blob). Returns how many sessions were restored.
func (s *Server) LoadState() (int, error) {
	if s.blobs == nil {
		return 0, nil
	}
	keys, err := s.blobs.List()
	if err != nil {
		return 0, err
	}
	var ids []string
	foreign := 0
	for _, key := range keys {
		if !strings.HasSuffix(key, snapExt) {
			continue
		}
		id := strings.TrimSuffix(key, snapExt)
		if !validStateID(id) {
			continue
		}
		if !s.resolver.owns(id) {
			foreign++
			continue
		}
		ids = append(ids, id)
	}
	if foreign > 0 {
		s.logf("warm start: %d snapshot(s) belong to other nodes, left in the blob store", foreign)
	}
	// Numeric order, so "s2" warm-starts before "s10".
	sort.Slice(ids, func(a, b int) bool {
		na, _ := strconv.ParseUint(ids[a][1:], 10, 63)
		nb, _ := strconv.ParseUint(ids[b][1:], 10, 63)
		return na < nb
	})
	restored := 0
	for i, id := range ids {
		if s.mgr.Len() >= s.cfg.Capacity {
			s.logf("warm start: capacity reached, %d snapshots stay in the blob store", len(ids)-i)
			break
		}
		ms, err := s.loadSessionBlob(id)
		if err != nil {
			s.logf("warm start: skipping %s: %v", id, err)
			continue
		}
		if err := s.mgr.AdmitAs(ms, id); err != nil {
			s.logf("warm start: %s not admitted: %v", id, err)
			continue
		}
		restored++
		s.logf("warm start: restored session %s (%d cached pairs, %d probes)",
			id, ms.Session.CachedPairs(), ms.Session.ProbeCount())
	}
	return restored, nil
}
