package server

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
)

// State persistence: when the server has a blob store (Config.StateDir
// configures the local-directory one; Config.Store injects any other),
// plasmad's knowledge caches survive the process. Moving one session
// between memory and the store is the manager's business (lifecycle.go);
// this file is the two sweeps over all of them, graceful shutdown
// (SaveState) and warm boot (LoadState).

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
	if s.mgr.store == nil {
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
		switch _, err := s.mgr.Persist(ms); {
		case err == nil:
			saved++
		case errors.Is(err, ErrNotFound):
			// Deleted or unloaded since List: nothing of it is left to lose.
		default:
			s.logf("save state %s: %v", ms.ID, err)
			failed++
			if firstErr == nil {
				firstErr = err
			}
		}
	}
	return saved, failed, firstErr
}

// LoadState restores saved sessions from the blob store — the warm-boot
// path. Only sessions this node owns are admitted (in single-node mode
// that is all of them); snapshots belonging to other ring members stay in
// the store for their owners to revive. Sessions are admitted in ID order
// until the manager is full; the rest stay in the store, revivable on
// demand. Each is the same revival a request for it would cause, so corrupt
// or unreadable snapshots are logged and skipped (boot never fails on a bad
// blob). The ID counter moves past every owned ID listed, loaded or not, so
// no new session is minted over a saved one. Returns how many sessions were
// restored.
func (s *Server) LoadState() (int, error) {
	if s.mgr.store == nil {
		return 0, nil
	}
	keys, err := s.mgr.store.List()
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
		s.mgr.bumpNextID(id)
		ids = append(ids, id)
	}
	if foreign > 0 {
		s.logf("warm start: %d snapshot(s) belong to other nodes, left in the blob store", foreign)
	}
	// Numeric order, so "s2" warm-starts before "s10".
	sort.Slice(ids, func(a, b int) bool {
		na, _ := stateIDNum(ids[a])
		nb, _ := stateIDNum(ids[b])
		return na < nb
	})
	restored := 0
	for i, id := range ids {
		if s.mgr.Len() >= s.cfg.Capacity {
			s.logf("warm start: capacity reached, %d snapshots stay in the blob store", len(ids)-i)
			break
		}
		if _, release, err := s.mgr.Acquire(id); err == nil {
			release()
			restored++
		}
	}
	return restored, nil
}
