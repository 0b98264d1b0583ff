package server

import (
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"sort"
	"strings"

	"plasmahd/internal/ring"
)

// resolver is the session-resolution layer: given a session ID it answers
// "who owns it" (the consistent-hash ring) and, through Server.acquire,
// "where is it stored" (resident in memory, revivable from the blob store,
// or gone). Handlers never reason about ownership or storage themselves —
// single-node mode is simply the one-node ring, so there is exactly one
// code path.
type resolver struct {
	self string            // this node's name; "" in single-node mode
	ring *ring.Ring        // nil in single-node mode
	urls map[string]string // node -> base URL (scheme://host[:port], no trailing slash)
}

// newResolver builds the routing table. Single-node mode (no node ID, no
// peers) resolves everything to the local node. Cluster mode requires the
// node's own ID to appear in the peer map so the ring and the identity
// agree.
func newResolver(self string, peers map[string]string) (*resolver, error) {
	if self == "" && len(peers) == 0 {
		return &resolver{}, nil
	}
	if self == "" {
		return nil, errors.New("peers configured but node-id is empty")
	}
	if len(peers) == 0 {
		return nil, fmt.Errorf("node-id %q configured but no peers", self)
	}
	if _, ok := peers[self]; !ok {
		return nil, fmt.Errorf("node-id %q does not appear in the peer list", self)
	}
	names := make([]string, 0, len(peers))
	urls := make(map[string]string, len(peers))
	for name, raw := range peers {
		if name == "" {
			return nil, errors.New("peer with empty node name")
		}
		if name != self {
			u, err := url.Parse(raw)
			if err != nil || (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
				return nil, fmt.Errorf("peer %q has invalid base URL %q (want http[s]://host:port)", name, raw)
			}
		}
		names = append(names, name)
		urls[name] = strings.TrimRight(raw, "/")
	}
	sort.Strings(names)
	return &resolver{self: self, ring: ring.New(names, ring.DefaultReplicas), urls: urls}, nil
}

// clustered reports whether more than this node can own sessions.
func (rv *resolver) clustered() bool { return rv.ring != nil }

// owner returns the node that owns id ("" in single-node mode: self).
func (rv *resolver) owner(id string) string {
	if rv.ring == nil {
		return rv.self
	}
	return rv.ring.Owner(id)
}

// owns reports whether this node is id's primary owner.
func (rv *resolver) owns(id string) bool { return rv.owner(id) == rv.self }

// sequence returns the preference order for id: the owner first, then the
// failover candidates clockwise around the ring.
func (rv *resolver) sequence(id string) []string {
	if rv.ring == nil {
		return []string{rv.self}
	}
	return rv.ring.Sequence(id)
}

// peerURL returns a node's base URL.
func (rv *resolver) peerURL(node string) string { return rv.urls[node] }

// nodes returns the cluster member count (1 in single-node mode).
func (rv *resolver) nodes() int {
	if rv.ring == nil {
		return 1
	}
	return rv.ring.Len()
}

// OwnerNode returns the cluster node that owns a session ID, or "" in
// single-node mode. Exported for tests and operator tooling.
func (s *Server) OwnerNode(id string) string { return s.resolver.owner(id) }

// acquire is the "where stored" half of session resolution: {id} resolves
// to a busy-marked session, resident or transparently revived from the
// blob store (Manager.Acquire). It fails with a 404 for an ID neither place
// knows and a 503 for a spilled session that cannot come back while every
// resident one is busy. The routing layer (serveOwned) has already decided
// that this node serves the request, so local memory and the shared blob
// store are the only places left to look.
func (s *Server) acquire(r *http.Request) (*ManagedSession, func(), error) {
	id := r.PathValue("id")
	ms, release, err := s.mgr.Acquire(id)
	if errors.Is(err, ErrCapacity) {
		return nil, nil, apiErr(http.StatusServiceUnavailable, "capacity", "%v", err)
	}
	if err != nil {
		return nil, nil, notFound(id)
	}
	return ms, release, nil
}
