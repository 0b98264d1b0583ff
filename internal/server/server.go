// Package server implements plasmad, the multi-tenant HTTP/JSON daemon over
// core.Session: many named probe sessions, each safely shared by concurrent
// clients over one knowledge cache (PR 1's concurrency guarantees are the
// substrate). The paper's Fig 2.1 loop — probe at t1, inspect estimates and
// cues, choose the next t — maps one-to-one onto the API: POST .../probe,
// GET .../curve (with knee suggestion), GET .../cues, repeat.
//
// The Manager enforces a session capacity with LRU eviction of idle
// sessions and coalesces duplicate in-flight probes at the same threshold
// (singleflight): with a shared cache, a second concurrent identical probe
// could only redo identical hash comparisons. It also owns every session's
// whole lifecycle — resident, spilled to the blob store, revived, handed
// off, deleted — as one state machine under one lock (lifecycle.go), so the
// HTTP layer never reasons about where a session is. Everything is stdlib
// net/http; docs/API.md documents the wire format (a test keeps it in
// lock-step with the route table).
package server

import (
	"context"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"plasmahd/internal/blob"
	"plasmahd/internal/metrics"
)

// Config holds the daemon's knobs; zero values get production-shaped
// defaults from New.
type Config struct {
	Addr           string        // listen address (default 127.0.0.1:8080)
	Capacity       int           // max resident sessions (default 16)
	Workers        int           // default engine workers per session (0 = all cores)
	RequestTimeout time.Duration // per-request deadline (default 60s; <0 disables)
	MaxBodyBytes   int64         // request-body cap (default 32 MiB; <0 disables)
	// MaxSnapshotBytes caps POST /v1/sessions/restore bodies separately
	// (default 1 GiB): snapshots the daemon itself emits routinely exceed
	// MaxBodyBytes, and a migration round trip must accept what the
	// snapshot endpoint produced.
	MaxSnapshotBytes int64
	// StateDir, when non-empty, makes knowledge caches durable: a
	// local-directory blob store is mounted there, and sessions are saved to
	// it on graceful shutdown, loaded on boot (warm start), spilled on
	// capacity eviction, and revived on demand. Ignored when Store is set.
	StateDir string
	// Store, when non-nil, is the blob store used for all session
	// persistence instead of the StateDir directory — embedders plug in any
	// blob.Store implementation (it must pass blobtest.Run).
	Store blob.Store
	// NodeID names this node in a cluster; empty means single-node mode.
	// Must appear as a key of Peers.
	NodeID string
	// Peers maps every cluster node's ID (this one included) to its base
	// URL. All nodes must be configured with the same map and share one
	// blob store, or sessions ping-pong and revivals miss.
	Peers map[string]string
	// ShutdownTimeout bounds the whole graceful-shutdown sequence: draining
	// in-flight requests plus saving resident sessions to the state dir
	// (default 10s). A large state dir may need more; sessions that miss
	// the deadline are logged individually and counted in the final line.
	ShutdownTimeout time.Duration
	// RateLimit caps each session's request rate in requests/second across
	// all session-scoped routes (0 disables). Over-limit requests get a 429
	// with a Retry-After header. Burst capacity is RateBurst.
	RateLimit float64
	// RateBurst is the per-session token-bucket burst size (default:
	// max(1, 2*RateLimit) when RateLimit is set).
	RateBurst int
	// MaxInflight caps concurrently served requests across all tenants
	// (0 disables). Over-cap requests get a 429 with Retry-After: 1;
	// /healthz and /metrics are exempt so the daemon stays observable
	// exactly when the cap is biting.
	MaxInflight int
	// EnablePprof mounts net/http/pprof under /debug/pprof/ (off by
	// default: profiles expose internals, so exposure is an operator
	// decision made with the -pprof flag).
	EnablePprof bool
	Logger      *log.Logger // request log (nil = silent)
}

// Server is the assembled daemon: a Manager plus the HTTP surface.
type Server struct {
	cfg   Config
	mgr   *Manager
	mux   *http.ServeMux
	hsrv  *http.Server
	start time.Time

	// HTTP-layer metrics, registered into the manager's registry. The
	// request counter and latency histogram are labeled by route pattern
	// (never the raw path — bounded cardinality), the counter additionally
	// by method and status class. A method no route serves is labeled
	// "other": the catch-all accepts any token as a method.
	httpRequests *metrics.CounterVec   // route, method, code class
	routeMethods map[string]bool       // methods of the route table
	httpLatency  *metrics.HistogramVec // route
	rateLimited  *metrics.CounterVec   // scope: session | inflight
	probeBatches *metrics.Counter
	rowsAppended *metrics.Counter // rows accepted by POST /v1/sessions/{id}/rows

	// Cluster plumbing (see resolver.go and cluster.go). resolver is always
	// non-nil; in single-node mode it resolves everything locally.
	resolver    *resolver
	proxyClient *http.Client

	clusterProxied   *metrics.Counter // requests forwarded to their owner
	clusterFailovers *metrics.Counter // requests served here because every preferred owner was unreachable
	clusterHandoffs  *metrics.Counter // resident sessions handed to their owner through the blob store

	limiter  *tokenLimiter // per-session token buckets; nil when disabled
	inflight atomic.Int64  // requests currently inside the middleware
}

// New builds a server (routes registered, not yet listening).
func New(cfg Config) *Server {
	if cfg.Addr == "" {
		cfg.Addr = "127.0.0.1:8080"
	}
	if cfg.Capacity == 0 {
		cfg.Capacity = 16
	}
	if cfg.RequestTimeout == 0 {
		cfg.RequestTimeout = 60 * time.Second
	}
	if cfg.MaxBodyBytes == 0 {
		cfg.MaxBodyBytes = 32 << 20
	}
	if cfg.MaxSnapshotBytes == 0 {
		cfg.MaxSnapshotBytes = 1 << 30
	}
	if cfg.ShutdownTimeout == 0 {
		cfg.ShutdownTimeout = 10 * time.Second
	}
	if cfg.RateLimit > 0 && cfg.RateBurst == 0 {
		cfg.RateBurst = int(2 * cfg.RateLimit)
		if cfg.RateBurst < 1 {
			cfg.RateBurst = 1
		}
	}
	s := &Server{
		cfg:          cfg,
		mgr:          NewManager(cfg.Capacity),
		mux:          http.NewServeMux(),
		start:        time.Now(),
		routeMethods: make(map[string]bool),
	}
	s.mgr.logf = s.logf
	rv, err := newResolver(cfg.NodeID, cfg.Peers)
	if err != nil {
		// An invalid cluster config must not half-join a ring: fall back to
		// single-node, loudly. cmd/plasmad validates the flags up front and
		// refuses to start instead.
		s.logf("cluster config rejected, running single-node: %v", err)
		rv = &resolver{}
	}
	s.resolver = rv
	reg := s.mgr.Registry()
	s.httpRequests = reg.CounterVec("plasmad_http_requests_total",
		"Completed HTTP requests by route pattern, method, and status class.",
		"route", "method", "code")
	s.httpLatency = reg.HistogramVec("plasmad_http_request_duration_seconds",
		"HTTP request latency by route pattern.", nil, "route")
	s.rateLimited = reg.CounterVec("plasmad_rate_limited_total",
		"Requests rejected with 429: per-session token bucket (scope=session) or the global inflight cap (scope=inflight).",
		"scope")
	s.probeBatches = reg.Counter("plasmad_probe_batches_total",
		"Batched probe requests served by POST /v1/sessions/{id}/probes.")
	s.rowsAppended = reg.Counter("plasmad_rows_appended_total",
		"Rows appended to live sessions via POST /v1/sessions/{id}/rows.")
	reg.GaugeFunc("plasmad_inflight_requests", "Requests currently being served.",
		func() float64 { return float64(s.inflight.Load()) })
	reg.GaugeFunc("plasmad_uptime_seconds", "Seconds since the daemon started.",
		func() float64 { return time.Since(s.start).Seconds() })
	reg.GaugeFunc("plasmad_goroutines", "Goroutines in the process.",
		func() float64 { return float64(runtime.NumGoroutine()) })
	if rv.clustered() {
		s.mgr.owns = rv.owns
		s.proxyClient = &http.Client{Transport: newProxyTransport()}
		s.clusterProxied = reg.Counter("plasmad_cluster_proxied_total",
			"Session requests forwarded to their owning node.")
		s.clusterFailovers = reg.Counter("plasmad_cluster_failovers_total",
			"Session requests served locally because every preferred owner was unreachable.")
		s.clusterHandoffs = reg.Counter("plasmad_cluster_handoffs_total",
			"Resident sessions handed off to their ring owner through the blob store.")
		reg.GaugeFunc("plasmad_cluster_nodes", "Nodes in the configured cluster ring.",
			func() float64 { return float64(rv.nodes()) })
	}
	if cfg.RateLimit > 0 {
		s.limiter = newTokenLimiter(cfg.RateLimit, float64(cfg.RateBurst))
	}
	for _, rt := range s.Routes() {
		s.mux.HandleFunc(rt.Method+" "+rt.Pattern, s.instrument(rt))
		s.routeMethods[rt.Method] = true
	}
	// Requests matching no route get the JSON 404 envelope (and count as
	// errors) like every other failure — the mux's default text/plain 404
	// was the one error response that bypassed both.
	s.mux.HandleFunc("/", s.handleUnmatched)
	if cfg.EnablePprof {
		// One shared route label: per-profile series would be cardinality
		// without insight, but "unmatched" would be a lie.
		profiled := func(h http.HandlerFunc) http.HandlerFunc {
			return func(w http.ResponseWriter, r *http.Request) {
				if sw, ok := w.(*statusWriter); ok {
					sw.route = "/debug/pprof/"
				}
				h(w, r)
			}
		}
		s.mux.HandleFunc("/debug/pprof/", profiled(pprof.Index))
		s.mux.HandleFunc("/debug/pprof/cmdline", profiled(pprof.Cmdline))
		s.mux.HandleFunc("/debug/pprof/profile", profiled(pprof.Profile))
		s.mux.HandleFunc("/debug/pprof/symbol", profiled(pprof.Symbol))
		s.mux.HandleFunc("/debug/pprof/trace", profiled(pprof.Trace))
	}
	switch {
	case cfg.Store != nil:
		s.mgr.store = cfg.Store
	case cfg.StateDir != "":
		d, err := blob.NewDir(cfg.StateDir)
		if err != nil {
			s.logf("state dir %s unavailable, persistence disabled: %v", cfg.StateDir, err)
		} else {
			s.mgr.store = d
		}
	}
	if n, err := s.LoadState(); err != nil {
		s.logf("warm start failed: %v", err)
	} else if n > 0 {
		s.logf("warm start: %d session(s) restored from the blob store", n)
	}
	s.hsrv = &http.Server{
		Handler:           s.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	return s
}

// Manager exposes the session manager (tests and embedders).
func (s *Server) Manager() *Manager { return s.mgr }

// Handler returns the full middleware-wrapped HTTP handler, ready to mount
// in httptest or another mux.
func (s *Server) Handler() http.Handler { return s.middleware(s.mux) }

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logger != nil {
		s.cfg.Logger.Printf(format, args...)
	}
}

// ListenAndServe binds cfg.Addr and serves until ctx is cancelled, then
// shuts down gracefully (in-flight requests drain). Passing ":0" picks a
// random port; the bound address is logged as "plasmad listening on ...".
func (s *Server) ListenAndServe(ctx context.Context) error {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return err
	}
	return s.Serve(ctx, ln)
}

// Serve runs the daemon on an existing listener until ctx is cancelled.
// The graceful-shutdown sequence — drain in-flight requests, then save
// resident sessions to the state dir — runs under one Config.ShutdownTimeout
// deadline; sessions that miss it are logged individually and counted in
// the final state-save line instead of vanishing silently.
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	s.logf("plasmad listening on %s", ln.Addr())
	errc := make(chan error, 1)
	// Bounded: hsrv.Serve returns once ctx cancellation triggers
	// hsrv.Shutdown below, and the buffered send never blocks.
	go func() { errc <- s.hsrv.Serve(ln) }()
	select {
	case <-ctx.Done():
		sctx, cancel := context.WithTimeout(context.Background(), s.cfg.ShutdownTimeout)
		defer cancel()
		err := s.hsrv.Shutdown(sctx)
		if s.mgr.store != nil {
			if saved, failed, serr := s.SaveState(sctx); serr != nil {
				s.logf("state save incomplete: %d saved, %d failed -> blob store (first error: %v)",
					saved, failed, serr)
			} else {
				s.logf("state saved: %d session(s), 0 failed -> blob store", saved)
			}
		}
		s.logf("plasmad shut down")
		return err
	case err := <-errc:
		if err == http.ErrServerClosed {
			return nil
		}
		return err
	}
}

// instrument wraps a route handler with the concerns that need the matched
// pattern: tagging the response writer so the middleware can label metrics
// by route instead of raw path, cluster ownership routing on {id}-scoped
// routes, and the per-session token bucket on those same routes (the
// "tenant" of a probe daemon is the session). Ownership runs before the
// rate limit so a proxied request is limited once, at the node that serves
// it, not at every hop.
func (s *Server) instrument(rt Route) http.HandlerFunc {
	scoped := strings.Contains(rt.Pattern, "{id}")
	return func(w http.ResponseWriter, r *http.Request) {
		if sw, ok := w.(*statusWriter); ok {
			sw.route = rt.Pattern
		}
		if scoped && s.serveOwned(w, r) {
			return
		}
		if s.resolver.clustered() {
			w.Header().Set(NodeHeader, s.resolver.self)
		}
		if scoped && s.limiter != nil {
			id := r.PathValue("id")
			if retry, ok := s.limiter.allow(id, time.Now()); !ok {
				s.rateLimited.With("session").Inc()
				w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(retry)))
				s.writeError(w, http.StatusTooManyRequests, "rate_limited",
					"session %q is over its request rate limit (%.3g/s); retry in %v",
					id, s.cfg.RateLimit, retry.Round(time.Millisecond))
				return
			}
		}
		rt.handler(w, r)
	}
}

// handleUnmatched is the mux fallback: a JSON 404 envelope (counted in the
// error stats like every writeError) instead of net/http's bare text 404,
// and a 405 with an Allow header when the path matches a registered pattern
// under a different method.
func (s *Server) handleUnmatched(w http.ResponseWriter, r *http.Request) {
	var allowed []string
	for _, rt := range s.Routes() {
		if rt.Method != r.Method && patternMatches(rt.Pattern, r.URL.Path) {
			allowed = append(allowed, rt.Method)
		}
	}
	if len(allowed) > 0 {
		w.Header().Set("Allow", strings.Join(allowed, ", "))
		s.writeError(w, http.StatusMethodNotAllowed, "method_not_allowed",
			"%s not allowed on %s (allowed: %s)", r.Method, r.URL.Path, strings.Join(allowed, ", "))
		return
	}
	s.writeError(w, http.StatusNotFound, "not_found", "no route for %s %s", r.Method, r.URL.Path)
}

// patternMatches reports whether a route pattern's path (with {id}-style
// wildcards) matches the given request path.
func patternMatches(pattern, path string) bool {
	ps := strings.Split(pattern, "/")
	xs := strings.Split(path, "/")
	if len(ps) != len(xs) {
		return false
	}
	for i := range ps {
		if strings.HasPrefix(ps[i], "{") && strings.HasSuffix(ps[i], "}") {
			if xs[i] == "" {
				return false
			}
			continue
		}
		if ps[i] != xs[i] {
			return false
		}
	}
	return true
}
