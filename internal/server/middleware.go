package server

import (
	"context"
	"net/http"
	"time"
)

// statusWriter captures the response status for the request log and
// metrics. route is stamped by the per-route instrument wrapper once the
// mux has matched, so metrics are labeled by pattern (bounded cardinality),
// never by raw path.
type statusWriter struct {
	http.ResponseWriter
	status  int
	route   string
	aborted bool // handler tore the connection down on purpose
}

func (sw *statusWriter) WriteHeader(code int) {
	if sw.status == 0 {
		sw.status = code
	}
	sw.ResponseWriter.WriteHeader(code)
}

func (sw *statusWriter) Write(b []byte) (int, error) {
	if sw.status == 0 {
		sw.status = http.StatusOK
	}
	return sw.ResponseWriter.Write(b)
}

// codeClass collapses a status code to the Prometheus-friendly class label
// ("2xx".."5xx"). Aborted streams report 5xx regardless of the committed
// status: the client saw a failure even though the header said 200.
func (sw *statusWriter) codeClass() string {
	if sw.aborted {
		return "5xx"
	}
	switch {
	case sw.status >= 500:
		return "5xx"
	case sw.status >= 400:
		return "4xx"
	case sw.status >= 300:
		return "3xx"
	default:
		return "2xx"
	}
}

// middleware wraps every route with, outermost first: request counting,
// per-route metrics (count by status class + latency histogram), logging,
// panic recovery (500 + JSON envelope), the global inflight cap, the
// per-request deadline, and the request-body size cap.
func (s *Server) middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.mgr.stats.Requests.Add(1)
		sw := &statusWriter{ResponseWriter: w}
		start := time.Now()
		// Registered before the recovery defer so it runs after it (LIFO):
		// by then the recovery path has written its 500, so panics are
		// visible to the metrics layer as 5xx like any other failure. It
		// also runs while an ErrAbortHandler re-panic unwinds.
		defer func() {
			route := sw.route
			if route == "" {
				route = "unmatched"
			}
			method := r.Method
			if !s.routeMethods[method] {
				method = "other"
			}
			s.httpRequests.With(route, method, sw.codeClass()).Inc()
			s.httpLatency.With(route).Observe(time.Since(start).Seconds())
		}()
		defer func() {
			if rec := recover(); rec != nil {
				s.mgr.stats.Errors.Add(1)
				if rec == http.ErrAbortHandler {
					// A handler that already committed a non-JSON stream
					// aborts on purpose (e.g. a mid-stream snapshot encode
					// failure): propagate so net/http tears the connection
					// down instead of appending a JSON envelope to a
					// partial binary body.
					sw.aborted = true
					s.logf("%s %s -> aborted (%v)", r.Method, r.URL.Path, time.Since(start).Round(time.Microsecond))
					panic(rec)
				}
				// The handler may have written nothing yet; best-effort
				// envelope (WriteHeader after a partial body is a no-op).
				s.writeJSON(sw, http.StatusInternalServerError,
					errorEnvelope{Error: errorBody{Code: "internal", Message: "internal server error"}})
			}
			s.logf("%s %s -> %d (%v)", r.Method, r.URL.Path, sw.status, time.Since(start).Round(time.Microsecond))
		}()
		// Inflight tracking and the global cap shed load before any work
		// happens. /healthz and /metrics stay exempt: the daemon must
		// remain observable exactly when the cap is biting.
		if r.URL.Path != "/healthz" && r.URL.Path != "/metrics" {
			n := s.inflight.Add(1)
			defer s.inflight.Add(-1)
			if s.cfg.MaxInflight > 0 && n > int64(s.cfg.MaxInflight) {
				s.rateLimited.With("inflight").Inc()
				w.Header().Set("Retry-After", "1")
				s.writeError(sw, http.StatusTooManyRequests, "rate_limited",
					"server is at its %d-request inflight cap", s.cfg.MaxInflight)
				return
			}
		}
		if s.cfg.RequestTimeout > 0 {
			ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
			defer cancel()
			r = r.WithContext(ctx)
		}
		if s.cfg.MaxBodyBytes > 0 && r.Body != nil {
			limit := s.cfg.MaxBodyBytes
			// Snapshot uploads get their own (larger) cap: the daemon's own
			// snapshot endpoint routinely emits more than the JSON body cap,
			// and restore must accept what snapshot produced.
			if r.Method == http.MethodPost && r.URL.Path == "/v1/sessions/restore" &&
				s.cfg.MaxSnapshotBytes > limit {
				limit = s.cfg.MaxSnapshotBytes
			}
			r.Body = http.MaxBytesReader(sw, r.Body, limit)
		}
		next.ServeHTTP(sw, r)
	})
}
