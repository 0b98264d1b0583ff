package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// ---- helpers ----

// expositionLine matches one valid Prometheus text-format line (comment or
// sample); the smoke script applies the same shape check to a live daemon.
var expositionLine = regexp.MustCompile(
	`^(# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]* .*|[a-zA-Z_:][a-zA-Z0-9_:]*(\{([a-zA-Z_][a-zA-Z0-9_]*="[^"]*",?)*\})? (-?[0-9.eE+-]+|NaN|[+-]Inf))$`)

// scrapeMetrics fetches /metrics and validates every line's shape.
func scrapeMetrics(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatalf("scrape: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("scrape: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("scrape: content type %q", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("scrape: read: %v", err)
	}
	body := string(raw)
	if !strings.HasSuffix(body, "\n") {
		t.Fatalf("exposition must end with a newline")
	}
	for _, line := range strings.Split(strings.TrimSuffix(body, "\n"), "\n") {
		if !expositionLine.MatchString(line) {
			t.Fatalf("malformed exposition line: %q", line)
		}
	}
	return body
}

// metricValue extracts the value of an exactly-named series ("name" or
// `name{labels}`) from an exposition, or -1 if absent.
func metricValue(exposition, series string) float64 {
	for _, line := range strings.Split(exposition, "\n") {
		if rest, ok := strings.CutPrefix(line, series+" "); ok {
			v, err := strconv.ParseFloat(rest, 64)
			if err == nil {
				return v
			}
		}
	}
	return -1
}

// ---- tentpole: /metrics ----

func TestMetricsEndpointCoversTheDaemon(t *testing.T) {
	dir := t.TempDir()
	_, ts := newStateServer(t, 4, dir)
	id := createToy(t, ts.URL)
	probeAt(t, ts.URL, id, 0.5)
	// Same threshold twice: second cue read must hit the memoized LRU.
	if st := call(t, "GET", ts.URL+"/v1/sessions/"+id+"/graph?t=0.5", nil, nil); st != 200 {
		t.Fatalf("graph: status %d", st)
	}
	if st := call(t, "GET", ts.URL+"/v1/sessions/"+id+"/cues?t=0.5", nil, nil); st != 200 {
		t.Fatalf("cues: status %d", st)
	}
	// Snapshot round trip moves bytes in both directions.
	snapResp, err := http.Post(ts.URL+"/v1/sessions/"+id+"/snapshot", "application/octet-stream", nil)
	if err != nil || snapResp.StatusCode != 200 {
		t.Fatalf("snapshot: %v status=%v", err, snapResp)
	}
	blob, _ := io.ReadAll(snapResp.Body)
	snapResp.Body.Close()
	restResp, err := http.Post(ts.URL+"/v1/sessions/restore", "application/octet-stream", strings.NewReader(string(blob)))
	if err != nil || restResp.StatusCode != 201 {
		t.Fatalf("restore: %v status=%v", err, restResp)
	}
	restResp.Body.Close()
	if st := call(t, "GET", ts.URL+"/v1/sessions/zzz", nil, nil); st != 404 {
		t.Fatalf("missing session: status %d", st)
	}

	exp := scrapeMetrics(t, ts.URL)
	checks := map[string]func(v float64) bool{
		"plasmad_probes_total":             func(v float64) bool { return v == 1 },
		"plasmad_sessions_created_total":   func(v float64) bool { return v == 1 },
		"plasmad_sessions_restored_total":  func(v float64) bool { return v == 1 },
		"plasmad_sessions_resident":        func(v float64) bool { return v == 2 },
		"plasmad_sessions_capacity":        func(v float64) bool { return v == 4 },
		"plasmad_cue_cache_misses_total":   func(v float64) bool { return v >= 1 },
		"plasmad_cue_cache_hits_total":     func(v float64) bool { return v >= 1 },
		"plasmad_snapshot_bytes_out_total": func(v float64) bool { return v == float64(len(blob)) },
		"plasmad_snapshot_bytes_in_total":  func(v float64) bool { return v == float64(len(blob)) },
		"plasmad_request_errors_total":     func(v float64) bool { return v == 1 }, // the 404
		`plasmad_http_requests_total{route="/v1/sessions/{id}/probe",method="POST",code="2xx"}`: func(v float64) bool { return v == 1 },
		`plasmad_http_requests_total{route="/v1/sessions/{id}",method="GET",code="4xx"}`:        func(v float64) bool { return v == 1 },
		`plasmad_http_request_duration_seconds_count{route="/v1/sessions/{id}/probe"}`:          func(v float64) bool { return v == 1 },
	}
	for series, ok := range checks {
		if v := metricValue(exp, series); !ok(v) {
			t.Errorf("%s = %v, unexpected", series, v)
		}
	}
}

// unlabeledSamples returns every label-free sample of an exposition by
// series name: exactly the unlabeled families, since every histogram here
// is labeled.
func unlabeledSamples(t *testing.T, exposition string) map[string]float64 {
	t.Helper()
	out := make(map[string]float64)
	for _, line := range strings.Split(strings.TrimSuffix(exposition, "\n"), "\n") {
		name, val, ok := strings.Cut(line, " ")
		if !ok || strings.HasPrefix(line, "#") || strings.Contains(name, "{") {
			continue
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			t.Fatalf("sample %q: %v", line, err)
		}
		out[name] = v
	}
	return out
}

// statsMatchScrape checks that GET /v1/stats on a quiescent node is the
// unlabeled half of the /metrics scrape taken right after it: the same key
// set and the same values, except for what the two requests themselves
// move. The scrape counts one more request started; the stats request is
// in flight while it renders (/metrics is exempt from inflight tracking);
// uptime and goroutines are live readings.
func statsMatchScrape(t *testing.T, base string) map[string]float64 {
	t.Helper()
	var stats map[string]float64
	if st := call(t, "GET", base+"/v1/stats", nil, &stats); st != 200 {
		t.Fatalf("stats: status %d", st)
	}
	scraped := unlabeledSamples(t, scrapeMetrics(t, base))
	for name, want := range scraped {
		got, ok := stats[name]
		switch {
		case !ok:
			t.Errorf("/v1/stats is missing %s", name)
		case name == "plasmad_http_requests_started_total":
			if got+1 != want {
				t.Errorf("%s: stats %v, scrape %v; want the scrape one higher", name, got, want)
			}
		case name == "plasmad_inflight_requests":
			if got != want+1 {
				t.Errorf("%s: stats %v, scrape %v; want the stats request in flight", name, got, want)
			}
		case name == "plasmad_uptime_seconds" || name == "plasmad_goroutines":
		case got != want:
			t.Errorf("%s: stats %v, scrape %v", name, got, want)
		}
	}
	for name := range stats {
		if _, ok := scraped[name]; !ok {
			t.Errorf("/v1/stats has %s, which /metrics does not", name)
		}
	}
	return stats
}

// TestStatsIsTheRegistry: /v1/stats renders the registry, so every
// unlabeled family of /metrics appears in it by name, on a single node and
// on a cluster node, and a newly registered counter shows up with no other
// change.
func TestStatsIsTheRegistry(t *testing.T) {
	srv, ts := newTestServer(t, 4)
	id := createToy(t, ts.URL)
	probeAt(t, ts.URL, id, 0.5)
	if st := call(t, "GET", ts.URL+"/v1/sessions/"+id+"/cues?t=0.5", nil, nil); st != 200 {
		t.Fatalf("cues: status %d", st)
	}
	stats := statsMatchScrape(t, ts.URL)
	if stats["plasmad_probes_total"] != 1 || stats["plasmad_sessions_resident"] != 1 ||
		stats["plasmad_uptime_seconds"] <= 0 || stats["plasmad_goroutines"] <= 0 {
		t.Errorf("unexpected single-node stats %v", stats)
	}

	widgets := srv.mgr.Registry().Counter("plasmad_test_widgets_total", "Widgets, registered by a test.")
	widgets.Add(7)
	if stats = statsMatchScrape(t, ts.URL); stats["plasmad_test_widgets_total"] != 7 {
		t.Errorf("a newly registered counter is missing from /v1/stats: %v", stats)
	}

	nodes := newCluster(t, t.TempDir(), 4, "a", "b", "c")
	owner := nodes["a"]
	cid := createToy(t, owner.URL())
	via := otherNode(nodes, "a")
	probeAt(t, via.URL(), cid, 0.5) // proxied to the owner
	stats = statsMatchScrape(t, via.URL())
	if stats["plasmad_cluster_proxied_total"] != 1 || stats["plasmad_cluster_nodes"] != 3 {
		t.Errorf("unexpected cluster-node stats %v", stats)
	}
	statsMatchScrape(t, owner.URL())
}

func TestMetricsDeterministicExposition(t *testing.T) {
	_, ts := newTestServer(t, 4)
	id := createToy(t, ts.URL)
	probeAt(t, ts.URL, id, 0.5)
	// Strip time-dependent gauges; everything else must be byte-identical
	// across consecutive scrapes of a quiescent daemon — except the request
	// counters the scrapes themselves advance, which must advance by
	// exactly one scrape's worth.
	stable := func(exp string) string {
		var keep []string
		for _, line := range strings.Split(exp, "\n") {
			if strings.HasPrefix(line, "plasmad_uptime_seconds") ||
				strings.HasPrefix(line, "plasmad_goroutines") ||
				strings.Contains(line, "duration_seconds") ||
				strings.Contains(line, "requests") {
				continue
			}
			keep = append(keep, line)
		}
		return strings.Join(keep, "\n")
	}
	a := scrapeMetrics(t, ts.URL)
	b := scrapeMetrics(t, ts.URL)
	if stable(a) != stable(b) {
		t.Fatalf("exposition not deterministic:\n--- a\n%s\n--- b\n%s", stable(a), stable(b))
	}
	// A scrape counts itself only after its response is written, so the
	// first exposition doesn't carry its own request yet (-1 = absent).
	va := metricValue(a, `plasmad_http_requests_total{route="/metrics",method="GET",code="2xx"}`)
	vb := metricValue(b, `plasmad_http_requests_total{route="/metrics",method="GET",code="2xx"}`)
	if va < 0 {
		va = 0
	}
	if vb != va+1 {
		t.Fatalf("scrape counter: %v then %v, want +1", va, vb)
	}
}

func TestMetricsConcurrentScrapes(t *testing.T) {
	_, ts := newTestServer(t, 4)
	id := createToy(t, ts.URL)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Probe traffic: distinct thresholds so probes actually run.
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				th := 0.3 + 0.02*float64((w*7+i)%30)
				body := strings.NewReader(fmt.Sprintf(`{"threshold":%g}`, th))
				resp, err := http.Post(ts.URL+"/v1/sessions/"+id+"/probe", "application/json", body)
				if err == nil {
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
			}
		}(w)
	}
	// Concurrent scrapes: every exposition must be well-formed, never torn.
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 15; i++ {
				scrapeMetrics(t, ts.URL)
			}
		}()
	}
	time.Sleep(300 * time.Millisecond)
	close(stop)
	wg.Wait()
	scrapeMetrics(t, ts.URL)
}

// ---- tentpole: rate limiting ----

func TestTokenLimiterRefill(t *testing.T) {
	l := newTokenLimiter(1, 2) // 1 token/s, burst 2
	t0 := time.Unix(1000, 0)
	for i := 0; i < 2; i++ {
		if _, ok := l.allow("s1", t0); !ok {
			t.Fatalf("burst request %d denied", i)
		}
	}
	retry, ok := l.allow("s1", t0)
	if ok {
		t.Fatal("third immediate request allowed past burst")
	}
	if retry <= 0 || retry > time.Second {
		t.Fatalf("retry = %v, want (0, 1s]", retry)
	}
	// Other keys are unaffected.
	if _, ok := l.allow("s2", t0); !ok {
		t.Fatal("second tenant was throttled by the first's traffic")
	}
	// 1.5s later one token has refilled — exactly one request passes.
	t1 := t0.Add(1500 * time.Millisecond)
	if _, ok := l.allow("s1", t1); !ok {
		t.Fatal("refilled token denied")
	}
	if _, ok := l.allow("s1", t1); ok {
		t.Fatal("second request allowed with only one refilled token")
	}
}

func TestTokenLimiterBoundedKeys(t *testing.T) {
	l := newTokenLimiter(1000, 1000) // effectively unlimited: buckets stay full
	t0 := time.Unix(1000, 0)
	for i := 0; i < 3*limiterMaxKeys; i++ {
		l.allow(fmt.Sprintf("s%d", i), t0.Add(time.Duration(i)*time.Second))
	}
	if len(l.buckets) > limiterMaxKeys {
		t.Fatalf("bucket map grew to %d, cap is %d", len(l.buckets), limiterMaxKeys)
	}
}

func TestRateLimitIsolatesTenants(t *testing.T) {
	srv := New(Config{Capacity: 4, RequestTimeout: 30 * time.Second, RateLimit: 1, RateBurst: 3})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	a := createToy(t, ts.URL)
	b := createToy(t, ts.URL)

	// Sustained over-limit traffic from session a: after the burst, 429s.
	var got429 *http.Response
	for i := 0; i < 10; i++ {
		resp, err := http.Get(ts.URL + "/v1/sessions/" + a)
		if err != nil {
			t.Fatalf("get: %v", err)
		}
		if resp.StatusCode == http.StatusTooManyRequests {
			got429 = resp
			break
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	if got429 == nil {
		t.Fatal("10 rapid requests never hit the rate limit")
	}
	defer got429.Body.Close()
	ra := got429.Header.Get("Retry-After")
	if secs, err := strconv.Atoi(ra); err != nil || secs < 1 {
		t.Fatalf("Retry-After = %q, want integer seconds >= 1", ra)
	}
	var env errorEnvelope
	if err := json.NewDecoder(got429.Body).Decode(&env); err != nil || env.Error.Code != "rate_limited" {
		t.Fatalf("429 envelope = %+v err=%v", env, err)
	}

	// Session b's probes still succeed while a is saturated.
	var probe probeResponse
	if st := call(t, "POST", ts.URL+"/v1/sessions/"+b+"/probe",
		map[string]any{"threshold": 0.5}, &probe); st != 200 || probe.PairCount == 0 {
		t.Fatalf("tenant b starved: status %d, %+v", st, probe)
	}

	exp := scrapeMetrics(t, ts.URL)
	if v := metricValue(exp, `plasmad_rate_limited_total{scope="session"}`); v < 1 {
		t.Fatalf("plasmad_rate_limited_total{scope=session} = %v, want >= 1", v)
	}
}

func TestGlobalInflightCap(t *testing.T) {
	srv := New(Config{Capacity: 4, MaxInflight: 1})
	block := make(chan struct{})
	started := make(chan struct{})
	next := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/slow" {
			close(started)
			<-block
		}
		w.Write([]byte(`{}`))
	})
	h := srv.middleware(next)
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)
	t.Cleanup(func() {
		select {
		case <-block:
		default:
			close(block)
		}
	})

	done := make(chan struct{})
	go func() {
		defer close(done)
		resp, err := http.Get(ts.URL + "/slow")
		if err == nil {
			resp.Body.Close()
		}
	}()
	<-started

	resp, err := http.Get(ts.URL + "/other")
	if err != nil {
		t.Fatalf("second request: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-cap request: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") != "1" {
		t.Fatalf("Retry-After = %q, want 1", resp.Header.Get("Retry-After"))
	}
	// Observability endpoints stay reachable at the cap.
	for _, path := range []string{"/healthz", "/metrics"} {
		r2, err := http.Get(ts.URL + path)
		if err != nil || r2.StatusCode != 200 {
			t.Fatalf("%s blocked by inflight cap: %v %v", path, err, r2)
		}
		r2.Body.Close()
	}
	close(block)
	<-done
	if v := srv.rateLimited.With("inflight").Load(); v < 1 {
		t.Fatalf("inflight rejections not counted: %d", v)
	}
}

// ---- tentpole: batched probes ----

// TestBatchProbeMatchesSequential pins the batch contract: N thresholds in
// one envelope return byte-identical per-threshold results to N sequential
// single probes on an identical fresh session (both daemons mint "s1").
func TestBatchProbeMatchesSequential(t *testing.T) {
	_, tsBatch := newTestServer(t, 4)
	_, tsSeq := newTestServer(t, 4)
	idB := createToy(t, tsBatch.URL)
	idS := createToy(t, tsSeq.URL)
	if idB != idS {
		t.Fatalf("fresh daemons minted different first IDs: %q vs %q", idB, idS)
	}
	thresholds := []float64{0.4, 0.6, 0.8, 0.6} // includes a repeat: cache-hit path

	resp, err := http.Post(tsBatch.URL+"/v1/sessions/"+idB+"/probes", "application/json",
		strings.NewReader(`{"thresholds":[0.4,0.6,0.8,0.6],"includePairs":true}`))
	if err != nil {
		t.Fatalf("batch: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("batch: status %d", resp.StatusCode)
	}
	var batch struct {
		SessionID string            `json:"sessionId"`
		Results   []json.RawMessage `json:"results"`
		Failed    int               `json:"failed"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&batch); err != nil {
		t.Fatalf("batch decode: %v", err)
	}
	if len(batch.Results) != len(thresholds) || batch.Failed != 0 {
		t.Fatalf("batch: %d results, %d failed", len(batch.Results), batch.Failed)
	}

	// processMillis is wall-clock time and can never agree across runs; mask
	// it in place so everything else is compared byte for byte.
	maskMillis := regexp.MustCompile(`"processMillis":[0-9.eE+-]+`)
	norm := func(raw []byte) string {
		return maskMillis.ReplaceAllString(strings.TrimSpace(string(raw)), `"processMillis":0`)
	}
	for i, th := range thresholds {
		body := fmt.Sprintf(`{"threshold":%g,"includePairs":true}`, th)
		sresp, err := http.Post(tsSeq.URL+"/v1/sessions/"+idS+"/probe", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("sequential probe %d: %v", i, err)
		}
		raw, _ := io.ReadAll(sresp.Body)
		sresp.Body.Close()
		if sresp.StatusCode != 200 {
			t.Fatalf("sequential probe %d: status %d", i, sresp.StatusCode)
		}
		got, want := norm(batch.Results[i]), norm(raw)
		if got != want {
			t.Errorf("threshold %g: batch result differs from sequential probe\nbatch: %s\nsingle: %s", th, got, want)
		}
	}
}

func TestBatchProbeValidation(t *testing.T) {
	_, ts := newTestServer(t, 4)
	id := createToy(t, ts.URL)
	cases := []struct {
		name, body string
	}{
		{"empty", `{"thresholds":[]}`},
		{"missing", `{}`},
		{"outOfRange", `{"thresholds":[0.5,1.5]}`},
		{"tooMany", `{"thresholds":[` + strings.TrimSuffix(strings.Repeat("0.5,", 257), ",") + `]}`},
	}
	for _, tc := range cases {
		resp, err := http.Post(ts.URL+"/v1/sessions/"+id+"/probes", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		var env errorEnvelope
		json.NewDecoder(resp.Body).Decode(&env)
		resp.Body.Close()
		if resp.StatusCode != 400 || env.Error.Code != "bad_request" {
			t.Errorf("%s: status %d code %q, want 400 bad_request", tc.name, resp.StatusCode, env.Error.Code)
		}
	}
	// A batch against a missing session is a plain 404.
	resp, err := http.Post(ts.URL+"/v1/sessions/nope/probes", "application/json",
		strings.NewReader(`{"thresholds":[0.5]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 404 {
		t.Fatalf("missing session batch: status %d", resp.StatusCode)
	}
}

func TestBatchProbeCountsProbesAndBatches(t *testing.T) {
	srv, ts := newTestServer(t, 4)
	id := createToy(t, ts.URL)
	if st := call(t, "POST", ts.URL+"/v1/sessions/"+id+"/probes",
		map[string]any{"thresholds": []float64{0.4, 0.7}}, nil); st != 200 {
		t.Fatalf("batch: status %d", st)
	}
	if got := srv.mgr.stats.Probes.Load(); got != 2 {
		t.Fatalf("probes counted = %d, want 2", got)
	}
	if got := srv.probeBatches.Load(); got != 1 {
		t.Fatalf("batches counted = %d, want 1", got)
	}
}

// ---- satellite 1: error accounting ----

// TestPanicCountedInStatsAndMetrics panics a handler behind the full
// middleware stack and asserts the 500 envelope, the legacy error counter,
// and the per-route metrics all see it.
func TestPanicCountedInStatsAndMetrics(t *testing.T) {
	srv := New(Config{Capacity: 2})
	h := srv.middleware(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		panic("boom")
	}))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/anything", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", rec.Code)
	}
	var env errorEnvelope
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil || env.Error.Code != "internal" {
		t.Fatalf("panic response not the 500 envelope: %q", rec.Body.String())
	}
	if got := srv.mgr.stats.Errors.Load(); got != 1 {
		t.Fatalf("Errors = %d, want 1", got)
	}
	if got := srv.httpRequests.With("unmatched", "GET", "5xx").Load(); got != 1 {
		t.Fatalf("http_requests_total{5xx} = %d, want 1: panics must be visible to /metrics", got)
	}
}

// TestUnmatchedRouteCounted pins the other accounting hole: requests that
// match no route must produce the JSON envelope and count as errors like
// every writeError path, not net/http's uncounted text 404.
func TestUnmatchedRouteCounted(t *testing.T) {
	srv, ts := newTestServer(t, 2)
	resp, err := http.Get(ts.URL + "/no/such/route")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 404 {
		t.Fatalf("status = %d, want 404", resp.StatusCode)
	}
	var env errorEnvelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil || env.Error.Code != "not_found" {
		t.Fatalf("unmatched route must return the JSON envelope, got %+v err=%v", env, err)
	}
	if got := srv.mgr.stats.Errors.Load(); got != 1 {
		t.Fatalf("Errors = %d, want 1", got)
	}

	// Known path, wrong method: 405 with Allow, also enveloped + counted.
	resp2, err := http.Post(ts.URL+"/v1/stats", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("wrong-method status = %d, want 405", resp2.StatusCode)
	}
	if allow := resp2.Header.Get("Allow"); !strings.Contains(allow, "GET") {
		t.Fatalf("Allow = %q, want GET", allow)
	}
	var env2 errorEnvelope
	if err := json.NewDecoder(resp2.Body).Decode(&env2); err != nil || env2.Error.Code != "method_not_allowed" {
		t.Fatalf("405 envelope = %+v err=%v", env2, err)
	}
}

// TestUnknownMethodsShareOneSeries: the catch-all accepts any token as a
// method, so a method no route serves is labeled "other" — 50 distinct
// unknown methods add one request-counter series, not 50, and each request
// still gets its JSON envelope.
func TestUnknownMethodsShareOneSeries(t *testing.T) {
	_, ts := newTestServer(t, 2)
	series := func() int {
		return strings.Count(scrapeMetrics(t, ts.URL), "\nplasmad_http_requests_total{")
	}
	series() // the first scrape is counted after it renders
	before := series()
	for i := range 50 {
		path, want, code := "/v1/stats", http.StatusMethodNotAllowed, "method_not_allowed"
		if i%2 == 1 {
			path, want, code = "/no/such/route", http.StatusNotFound, "not_found"
		}
		req, err := http.NewRequest(fmt.Sprintf("M%d", i), ts.URL+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var env errorEnvelope
		err = json.NewDecoder(resp.Body).Decode(&env)
		resp.Body.Close()
		if resp.StatusCode != want || err != nil || env.Error.Code != code {
			t.Fatalf("M%d %s: status %d envelope %+v err %v", i, path, resp.StatusCode, env, err)
		}
	}
	exp := scrapeMetrics(t, ts.URL)
	if after := strings.Count(exp, "\nplasmad_http_requests_total{"); after != before+1 {
		t.Fatalf("50 unknown methods added %d request series, want 1", after-before)
	}
	if v := metricValue(exp, `plasmad_http_requests_total{route="unmatched",method="other",code="4xx"}`); v != 50 {
		t.Fatalf(`method="other" series = %v, want 50`, v)
	}
}

// ---- satellite 2: empty-graph triangle histogram ----

// TestCuesEmptyGraphHistogram pins the degenerate-histogram fix: when the
// threshold graph has no triangles, the response reports the single real
// [0,1) bucket instead of the requested bin count with phantom empties.
func TestCuesEmptyGraphHistogram(t *testing.T) {
	_, ts := newTestServer(t, 2)
	// Four mutually orthogonal rows: every pairwise similarity is 0, so no
	// pair clears t=0.9 and the threshold graph has no edges at all.
	var info sessionInfo
	st := call(t, "POST", ts.URL+"/v1/sessions", map[string]any{
		"dense": [][]float64{{1, 0, 0, 0}, {0, 1, 0, 0}, {0, 0, 1, 0}, {0, 0, 0, 1}},
		"seed":  1,
	}, &info)
	if st != 201 {
		t.Fatalf("create: status %d", st)
	}
	if st := call(t, "POST", ts.URL+"/v1/sessions/"+info.ID+"/probe",
		map[string]any{"threshold": 0.9}, nil); st != 200 {
		t.Fatalf("probe: status %d", st)
	}
	var cues cuesResponse
	if st := call(t, "GET", ts.URL+"/v1/sessions/"+info.ID+"/cues?t=0.9&bins=8", nil, &cues); st != 200 {
		t.Fatalf("cues: status %d", st)
	}
	if cues.Triangles != 0 {
		t.Fatalf("expected a triangle-free graph, got %d triangles", cues.Triangles)
	}
	h := cues.TriangleHistogram
	if len(h.Counts) != 1 {
		t.Fatalf("empty-graph histogram has %d buckets (%v), want the single [0,1) bucket", len(h.Counts), h.Counts)
	}
	if h.Lo != 0 || h.Hi != 1 || h.Counts[0] != info.Rows {
		t.Fatalf("empty-graph histogram = {lo:%v hi:%v counts:%v}, want all %d vertices in [0,1)",
			h.Lo, h.Hi, h.Counts, info.Rows)
	}
	// A graph with triangles still honors the requested bin count.
	toy := createToy(t, ts.URL)
	probeAt(t, ts.URL, toy, 0.5)
	var full cuesResponse
	if st := call(t, "GET", ts.URL+"/v1/sessions/"+toy+"/cues?t=0.5&bins=8", nil, &full); st != 200 {
		t.Fatalf("cues: status %d", st)
	}
	if full.Triangles == 0 || len(full.TriangleHistogram.Counts) != 8 {
		t.Fatalf("non-empty graph: triangles=%d bins=%d, want triangles>0 and 8 bins",
			full.Triangles, len(full.TriangleHistogram.Counts))
	}
}

// ---- satellite 3: bounded shutdown save ----

// TestSaveStateDeadline pins the shutdown-save contract: an expired budget
// loses no session silently — every unsaved session is logged and counted.
func TestSaveStateDeadline(t *testing.T) {
	dir := t.TempDir()
	var logBuf syncBuffer
	srv := New(Config{
		Capacity: 4, RequestTimeout: 30 * time.Second, StateDir: dir,
		Logger: log.New(&logBuf, "", 0),
	})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	a := createToy(t, ts.URL)
	b := createToy(t, ts.URL)

	expired, cancel := context.WithDeadline(context.Background(), time.Unix(0, 0))
	defer cancel()
	saved, failed, err := srv.SaveState(expired)
	if saved != 0 || failed != 2 || err == nil {
		t.Fatalf("expired deadline: saved=%d failed=%d err=%v, want 0/2/non-nil", saved, failed, err)
	}
	logs := logBuf.String()
	for _, id := range []string{a, b} {
		if !strings.Contains(logs, "save state "+id+": not saved, shutdown deadline exceeded") {
			t.Errorf("session %s lost without a log line; log:\n%s", id, logs)
		}
	}

	saved, failed, err = srv.SaveState(context.Background())
	if saved != 2 || failed != 0 || err != nil {
		t.Fatalf("unbounded save: saved=%d failed=%d err=%v, want 2/0/nil", saved, failed, err)
	}
}

// TestShutdownTimeoutConfigured pins that the Serve shutdown path honors
// Config.ShutdownTimeout instead of a hardcoded constant, and that the
// final log line surfaces the failed-save count.
func TestShutdownTimeoutConfigured(t *testing.T) {
	dir := t.TempDir()
	var logBuf syncBuffer
	srv := New(Config{
		Capacity: 4, StateDir: dir, ShutdownTimeout: 2 * time.Second,
		Logger: log.New(&logBuf, "", 0),
	})
	if srv.cfg.ShutdownTimeout != 2*time.Second {
		t.Fatalf("ShutdownTimeout = %v", srv.cfg.ShutdownTimeout)
	}
	ts := httptest.NewServer(srv.Handler())
	createToy(t, ts.URL)
	ts.Close()

	ctx, cancel := context.WithCancel(context.Background())
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ctx, ln) }()
	time.Sleep(50 * time.Millisecond) // let Serve start
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("serve: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("shutdown did not complete within its budget")
	}
	if logs := logBuf.String(); !strings.Contains(logs, "state saved: 1 session(s), 0 failed") {
		t.Fatalf("final save line missing the failed count; log:\n%s", logs)
	}
}

// syncBuffer is a mutex-guarded strings.Builder for concurrent log capture.
type syncBuffer struct {
	mu sync.Mutex
	b  strings.Builder
}

func (sb *syncBuffer) Write(p []byte) (int, error) {
	sb.mu.Lock()
	defer sb.mu.Unlock()
	return sb.b.Write(p)
}

func (sb *syncBuffer) String() string {
	sb.mu.Lock()
	defer sb.mu.Unlock()
	return sb.b.String()
}
