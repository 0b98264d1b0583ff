package server

import (
	"bytes"
	"errors"
	"io"
	"net"
	"net/http"
	"time"
)

// Cluster mode: plasmad runs shared-nothing across N nodes. The resolver's
// consistent-hash ring assigns every session ID an owner; a node either
// serves a {id}-scoped request it owns or transparently proxies it to the
// owner in a single hop. The shared blob store is the rendezvous for
// session state — eviction spill, graceful shutdown, and rebalance
// handoffs write there, and any node can revive from there — so ownership
// can move without the session's knowledge cache being lost.
//
// Forwarding contract (the single-hop guarantee): a proxied request
// carries ForwardedHeader naming the sender. A node receiving a forwarded
// request always serves it locally — never re-proxies — so no routing
// disagreement can loop a request. Every response carries NodeHeader
// naming the node that actually served it, which is how tests and
// operators observe routing.
//
// Failover: if the owner is unreachable at the transport level, the entry
// node walks the ring's preference sequence. Reaching itself, it serves as
// the failover owner, reviving from the blob store — this is how a
// session survives its owner's death (the owner's graceful shutdown, like
// any eviction, spilled it to the shared store). HTTP-level errors from
// the owner are passed through verbatim, never retried.

// ForwardedHeader marks a request proxied by a peer; its value is the
// sending node's ID. Requests carrying it are always served locally.
const ForwardedHeader = "X-Plasma-Forwarded"

// NodeHeader names the cluster node that actually served a response.
const NodeHeader = "X-Plasma-Node"

// HandoffHeader marks a forwarded request whose sender just spilled its
// resident copy of the session to the blob store. The receiver must drop
// any resident copy it has (e.g. a stale snapshot it warm-booted before the
// handoff) and revive from the store, which now holds the freshest
// evidence.
const HandoffHeader = "X-Plasma-Handoff"

// newProxyTransport builds the inter-node HTTP transport: a short dial
// timeout makes dead-owner failover fast, and per-host connection reuse
// keeps the proxy hop cheap under load.
func newProxyTransport() *http.Transport {
	return &http.Transport{
		DialContext:         (&net.Dialer{Timeout: 2 * time.Second}).DialContext,
		MaxIdleConnsPerHost: 32,
		IdleConnTimeout:     90 * time.Second,
	}
}

// serveOwned is the ownership middleware for {id}-scoped routes. It
// reports true when the request was fully handled here (proxied to a peer,
// or failed with an error envelope); false means the caller should
// continue serving locally — because this node owns the ID, the request
// was forwarded to us, or every preferred owner is unreachable and this
// node is the failover.
func (s *Server) serveOwned(w http.ResponseWriter, r *http.Request) bool {
	rv := s.resolver
	if !rv.clustered() {
		return false
	}
	id := r.PathValue("id")
	if from := r.Header.Get(ForwardedHeader); from != "" {
		// Single-hop loop guard: the sender already decided we are
		// responsible (owner or failover). Serve locally even if we
		// disagree — re-proxying could ping-pong forever on a membership
		// disagreement, and a local miss is a plain 404.
		if r.Header.Get(HandoffHeader) != "" {
			// The sender spilled a fresher copy to the blob store than
			// anything we hold (e.g. a snapshot we warm-booted before the
			// failover happened). Drop ours so acquire revives the fresh one.
			s.dropStale(id, from)
		}
		return false
	}
	seq := rv.sequence(id)
	if seq[0] == rv.self {
		return false
	}
	// Not ours: if a membership change (or an earlier failover) left the
	// session resident here anyway, hand it to its owner through the blob
	// store before proxying, so the owner revives our evidence, not a
	// stale snapshot.
	handedOff := s.handoff(id, seq[0])
	body, ok := s.bufferProxyBody(w, r)
	if !ok {
		return true
	}
	for _, node := range seq {
		if node == rv.self {
			// Every preferred owner ahead of us is unreachable: serve as
			// the failover owner (acquire will revive from the blob store).
			if s.mgr.store == nil {
				s.writeError(w, http.StatusBadGateway, "peer_unreachable",
					"owner %q of session %q is unreachable and this node has no blob store to revive from",
					seq[0], id)
				return true
			}
			s.clusterFailovers.Inc()
			s.logf("cluster: owners of %s unreachable, serving as failover", id)
			r.Body = io.NopCloser(bytes.NewReader(body))
			r.ContentLength = int64(len(body))
			return false
		}
		if r.Context().Err() != nil {
			// Client (or the request deadline) is gone; stop failing over.
			s.writeError(w, http.StatusServiceUnavailable, "timeout",
				"request expired while reaching the owner of session %q", id)
			return true
		}
		err := s.proxyTo(w, r, node, body, handedOff)
		if err == nil {
			s.clusterProxied.Inc()
			return true
		}
		s.logf("cluster: proxy %s %s to %s failed: %v", r.Method, r.URL.Path, node, err)
	}
	// Unreachable: sequence always contains self.
	s.writeError(w, http.StatusBadGateway, "peer_unreachable", "no node could serve session %q", id)
	return true
}

// bufferProxyBody reads the (already size-capped) request body so it can
// be replayed: once to each proxy candidate during failover, or to the
// local handler if this node ends up serving. On failure it writes the
// error envelope and reports false.
func (s *Server) bufferProxyBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	if r.Body == nil {
		return nil, true
	}
	body, err := io.ReadAll(r.Body)
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			s.writeError(w, http.StatusRequestEntityTooLarge, "too_large",
				"request body exceeds the %d-byte limit", tooBig.Limit)
		} else {
			s.writeError(w, http.StatusBadRequest, "bad_request", "reading request body: %v", err)
		}
		return nil, false
	}
	return body, true
}

// proxyTo forwards the request to node and copies the response back. A nil
// return means the peer produced a response (whatever its status) and it
// was relayed; a non-nil return means the peer was unreachable at the
// transport level and nothing was written, so the caller may fail over.
func (s *Server) proxyTo(w http.ResponseWriter, r *http.Request, node string, body []byte, handedOff bool) error {
	target := s.resolver.peerURL(node) + r.URL.RequestURI()
	outreq, err := http.NewRequestWithContext(r.Context(), r.Method, target, bytes.NewReader(body))
	if err != nil {
		return err
	}
	outreq.Header = r.Header.Clone()
	outreq.Header.Set(ForwardedHeader, s.resolver.self)
	if handedOff {
		outreq.Header.Set(HandoffHeader, "1")
	}
	outreq.ContentLength = int64(len(body))
	resp, err := s.proxyClient.Do(outreq)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	h := w.Header()
	for k, vs := range resp.Header {
		switch k {
		case "Connection", "Keep-Alive", "Transfer-Encoding":
			// Hop-by-hop; net/http manages these per connection.
		default:
			h[k] = vs
		}
	}
	w.WriteHeader(resp.StatusCode)
	if _, err := io.Copy(w, resp.Body); err != nil {
		// The response is already committed; nothing to do but log. The
		// client sees a truncated body and the peer's CRC-style checks
		// (binary snapshots) or JSON parsing catch it.
		s.logf("cluster: relaying response from %s: %v", node, err)
	}
	return nil
}

// handoff moves a resident-but-unowned session to its ring owner: spill
// the local copy to the shared blob store (preserving evidence accumulated
// here) and drop it from this node's manager, so the owner's next revival
// reads our freshest snapshot. It reports whether the spill happened, so
// the proxied request can carry HandoffHeader and make the owner drop any
// stale resident copy. Busy sessions are skipped — in-flight requests keep
// their evidence, and the next proxied request retries the handoff once
// the session is idle.
func (s *Server) handoff(id, owner string) bool {
	if s.mgr.store == nil {
		return false
	}
	if unloaded, err := s.mgr.Unload(id, true); !unloaded || err != nil {
		// Nothing idle to hand off, or its spill failed (counted and logged
		// there): the owner revives whatever snapshot the store last saw.
		return false
	}
	s.clusterHandoffs.Inc()
	s.logf("cluster: handed off session %s to owner %s", id, owner)
	return true
}

// dropStale discards a resident copy of a session superseded by a handoff
// spill (the blob store holds fresher evidence). Nothing is spilled here —
// that would overwrite the fresh snapshot with the stale one. A busy copy
// is left alone: the in-flight request finishes against it, and a later
// handoff retries.
func (s *Server) dropStale(id, from string) {
	if s.mgr.store == nil {
		return
	}
	if unloaded, _ := s.mgr.Unload(id, false); unloaded {
		s.logf("cluster: dropped stale resident copy of %s superseded by handoff from %s", id, from)
	}
}
