// Package httperrtest is the httperr golden fixture: the PR 6 bug class —
// error responses that bypass the JSON envelope and so never increment the
// error counters behind /v1/stats and /metrics.
package httperrtest

import (
	"fmt"
	"net/http"
)

// writeError is the envelope helper; it is allowlisted by name and may
// touch the ResponseWriter directly.
func writeError(w http.ResponseWriter, status int, msg string) {
	w.WriteHeader(status)
	fmt.Fprintf(w, `{"error":{"message":%q}}`, msg)
}

// plainError is the minimal historical bug: a text error invisible to the
// error counters.
func plainError(w http.ResponseWriter, r *http.Request) {
	http.Error(w, "no such session", http.StatusNotFound) // want "http.Error bypasses the JSON envelope"
}

// bareHeader writes a constant 5xx without the envelope.
func bareHeader(w http.ResponseWriter) {
	w.WriteHeader(http.StatusInternalServerError) // want "bare WriteHeader(500)"
}

// success statuses are not error paths.
func created(w http.ResponseWriter) {
	w.WriteHeader(http.StatusCreated)
}

// relay forwards an upstream status; non-constant codes are forwarding
// machinery, not hand-written error paths.
func relay(w http.ResponseWriter, upstream int) {
	w.WriteHeader(upstream)
}
