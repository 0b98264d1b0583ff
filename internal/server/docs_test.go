package server

import (
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

// TestAPIDocsCoverEveryRoute keeps docs/API.md in lock-step with the route
// table: every registered "METHOD /pattern" must appear verbatim in the doc,
// and the doc must not describe endpoints that no longer exist.
func TestAPIDocsCoverEveryRoute(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "..", "docs", "API.md"))
	if err != nil {
		t.Fatalf("docs/API.md must exist and document every route: %v", err)
	}
	doc := string(raw)

	srv := New(Config{})
	routes := srv.routes
	if len(routes) < 8 {
		t.Fatalf("plasmad must serve at least 8 endpoints, route table has %d", len(routes))
	}
	seen := make(map[string]bool, len(routes))
	for _, rt := range routes {
		key := rt.Method + " " + rt.Pattern
		seen[key] = true
		if !strings.Contains(doc, key) {
			t.Errorf("docs/API.md is missing the registered route %q", key)
		}
	}

	// Reverse direction: every "METHOD /path" heading in the doc's endpoint
	// lines (backtick-quoted) must be a registered route.
	for _, line := range strings.Split(doc, "\n") {
		for _, method := range []string{"GET", "POST", "PUT", "PATCH", "DELETE"} {
			marker := "`" + method + " /"
			idx := strings.Index(line, marker)
			if idx < 0 {
				continue
			}
			rest := line[idx+1:]
			end := strings.IndexByte(rest, '`')
			if end < 0 {
				continue
			}
			// Strip any query-string example from the documented pattern.
			docRoute := rest[:end]
			if q := strings.IndexByte(docRoute, '?'); q >= 0 {
				docRoute = docRoute[:q]
			}
			if !seen[docRoute] {
				t.Errorf("docs/API.md documents %q which is not a registered route", docRoute)
			}
		}
	}

	if t.Failed() {
		var known []string
		for k := range seen {
			known = append(known, k)
		}
		fmt.Println("registered routes:", known)
	}
}

// liveScrape returns the /metrics exposition of a clustered node (a
// one-node ring, so every cluster family is registered) on which every
// labeled family has a series: a session-scoped 404 and then a 429 from a
// one-token bucket.
func liveScrape(t *testing.T) string {
	t.Helper()
	srv := New(Config{
		RequestTimeout: 30 * time.Second,
		NodeID:         "a",
		Peers:          map[string]string{"a": "http://127.0.0.1:1"},
		RateLimit:      0.001,
		RateBurst:      1,
	})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	for _, want := range []int{404, 429} {
		if st := call(t, "GET", ts.URL+"/v1/sessions/nope", nil, nil); st != want {
			t.Fatalf("GET /v1/sessions/nope: status %d, want %d", st, want)
		}
	}
	return scrapeMetrics(t, ts.URL)
}

// TestDocsNameRegisteredMetrics keeps the prose honest about the registry:
// every plasmad_ metric the docs name is a family a clustered daemon
// registers (histogram series suffixes stripped), and every # HELP line
// API.md quotes is what a live scrape prints.
func TestDocsNameRegisteredMetrics(t *testing.T) {
	exp := liveScrape(t)
	families := make(map[string]bool)
	for _, line := range strings.Split(exp, "\n") {
		if rest, ok := strings.CutPrefix(line, "# HELP "); ok {
			name, _, _ := strings.Cut(rest, " ")
			families[name] = true
		}
	}
	for _, name := range []string{"plasmad_cluster_nodes", "plasmad_rate_limited_total", "plasmad_http_request_duration_seconds"} {
		if !families[name] {
			t.Fatalf("live scrape is missing %s; the check below would be vacuous", name)
		}
	}
	token := regexp.MustCompile(`plasmad_[a-z0-9_]*[a-z0-9]`)
	suffix := regexp.MustCompile(`_(bucket|sum|count)$`)
	for _, doc := range []string{"docs/API.md", "docs/ARCHITECTURE.md", "README.md"} {
		raw, err := os.ReadFile(filepath.Join("..", "..", doc))
		if err != nil {
			t.Fatal(err)
		}
		for _, tok := range token.FindAllString(string(raw), -1) {
			if !families[tok] && !families[suffix.ReplaceAllString(tok, "")] {
				t.Errorf("%s names %s, which the daemon does not register", doc, tok)
			}
		}
		if doc != "docs/API.md" {
			continue
		}
		for _, line := range strings.Split(string(raw), "\n") {
			if strings.HasPrefix(line, "# HELP ") && !strings.Contains("\n"+exp, "\n"+line+"\n") {
				t.Errorf("%s quotes %q, which a live scrape does not print", doc, line)
			}
		}
	}
}
