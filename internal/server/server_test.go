package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"plasmahd/internal/bayeslsh"
	"plasmahd/internal/core"
	"plasmahd/internal/dataset"
)

// newTestServer returns a daemon on an httptest listener.
func newTestServer(t *testing.T, capacity int) (*Server, *httptest.Server) {
	t.Helper()
	srv := New(Config{Capacity: capacity, RequestTimeout: 30 * time.Second})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

// call issues a request and decodes the JSON response into out (if non-nil).
func call(t *testing.T, method, url string, body any, out any) int {
	t.Helper()
	var rd *bytes.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatalf("marshal body: %v", err)
		}
		rd = bytes.NewReader(b)
	} else {
		rd = bytes.NewReader(nil)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatalf("new request: %v", err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("%s %s: decode response: %v", method, url, err)
		}
	}
	// The response ends only after the handler's middleware has run, so a
	// body read to its end orders the caller after the request's metrics.
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		t.Fatalf("%s %s: read response: %v", method, url, err)
	}
	return resp.StatusCode
}

// createToy makes a toy-dataset session and returns its ID.
func createToy(t *testing.T, base string) string {
	t.Helper()
	var info sessionInfo
	st := call(t, "POST", base+"/v1/sessions",
		map[string]any{"dataset": map[string]any{"kind": "toy"}, "seed": 1}, &info)
	if st != http.StatusCreated {
		t.Fatalf("create session: status %d", st)
	}
	if info.ID == "" || info.Rows != 50 {
		t.Fatalf("create session: unexpected info %+v", info)
	}
	return info.ID
}

func TestSessionLifecycle(t *testing.T) {
	_, ts := newTestServer(t, 4)
	id := createToy(t, ts.URL)

	var health map[string]string
	if st := call(t, "GET", ts.URL+"/healthz", nil, &health); st != 200 || health["status"] != "ok" {
		t.Fatalf("healthz: status %d body %v", st, health)
	}

	var ds struct {
		Sources []dataset.Source `json:"sources"`
	}
	if st := call(t, "GET", ts.URL+"/v1/datasets", nil, &ds); st != 200 || len(ds.Sources) < 3 {
		t.Fatalf("datasets: status %d sources %v", st, ds.Sources)
	}

	var probe probeResponse
	if st := call(t, "POST", ts.URL+"/v1/sessions/"+id+"/probe",
		map[string]any{"threshold": 0.5}, &probe); st != 200 {
		t.Fatalf("probe: status %d", st)
	}
	if probe.PairCount == 0 || probe.Coalesced {
		t.Fatalf("probe: want pairs and no coalescing on first probe, got %+v", probe)
	}

	var curve curveResponse
	if st := call(t, "GET", ts.URL+"/v1/sessions/"+id+"/curve?lo=0.2&hi=0.95&steps=10", nil, &curve); st != 200 {
		t.Fatalf("curve: status %d", st)
	}
	if len(curve.Points) != 10 || curve.Knee < 0.2 || curve.Knee > 0.95 {
		t.Fatalf("curve: unexpected %+v", curve)
	}

	var gr graphResponse
	if st := call(t, "GET", ts.URL+"/v1/sessions/"+id+"/graph?t=0.5", nil, &gr); st != 200 {
		t.Fatalf("graph: status %d", st)
	}
	if gr.Vertices != 50 || gr.Edges == 0 || len(gr.DegreeHistogram) == 0 {
		t.Fatalf("graph: unexpected %+v", gr)
	}

	var cues cuesResponse
	if st := call(t, "GET", ts.URL+"/v1/sessions/"+id+"/cues?t=0.5&bins=6", nil, &cues); st != 200 {
		t.Fatalf("cues: status %d", st)
	}
	if cues.Triangles == 0 || len(cues.TriangleHistogram.Counts) != 6 {
		t.Fatalf("cues: want triangles at t=0.5 on toy data, got %+v", cues)
	}

	var sweep sweepResponse
	if st := call(t, "POST", ts.URL+"/v1/sessions/"+id+"/sweep",
		map[string]any{"threshold": 0.4, "targets": []float64{0.5, 0.7}, "snapshots": 5}, &sweep); st != 200 {
		t.Fatalf("sweep: status %d", st)
	}
	if len(sweep.Snapshots) == 0 || len(sweep.Snapshots[0].Estimates) != 2 {
		t.Fatalf("sweep: unexpected %+v", sweep)
	}

	var list struct {
		Sessions []sessionInfo `json:"sessions"`
	}
	if st := call(t, "GET", ts.URL+"/v1/sessions", nil, &list); st != 200 || len(list.Sessions) != 1 {
		t.Fatalf("list: status %d sessions %v", st, list.Sessions)
	}
	if list.Sessions[0].Probes < 2 || list.Sessions[0].CachedPairs == 0 {
		t.Fatalf("list: session should have recorded probes and cached pairs, got %+v", list.Sessions[0])
	}

	var stats map[string]float64
	if st := call(t, "GET", ts.URL+"/v1/stats", nil, &stats); st != 200 {
		t.Fatalf("stats: status %d", st)
	}
	if stats["plasmad_sessions_resident"] != 1 || stats["plasmad_probes_total"] < 2 ||
		stats["plasmad_http_requests_started_total"] == 0 {
		t.Fatalf("stats: unexpected %+v", stats)
	}

	if st := call(t, "DELETE", ts.URL+"/v1/sessions/"+id, nil, nil); st != 200 {
		t.Fatalf("delete: status %d", st)
	}
	if st := call(t, "GET", ts.URL+"/v1/sessions/"+id, nil, nil); st != http.StatusNotFound {
		t.Fatalf("get after delete: want 404, got %d", st)
	}
}

// TestConcurrentClientsShareCache is the acceptance check: two concurrent
// HTTP clients probing one session share a single knowledge cache, so a
// follow-up probe at either threshold is answered wholly from cache. Run
// under -race this also exercises the manager/session locking.
func TestConcurrentClientsShareCache(t *testing.T) {
	_, ts := newTestServer(t, 2)
	id := createToy(t, ts.URL)

	thresholds := []float64{0.45, 0.65}
	var wg sync.WaitGroup
	results := make([]probeResponse, len(thresholds))
	for i, th := range thresholds {
		wg.Add(1)
		go func(i int, th float64) {
			defer wg.Done()
			st := call(t, "POST", ts.URL+"/v1/sessions/"+id+"/probe",
				map[string]any{"threshold": th, "workers": 2}, &results[i])
			if st != 200 {
				t.Errorf("concurrent probe t=%v: status %d", th, st)
			}
		}(i, th)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	// Repeat both probes. The evidence both clients produced landed in one
	// cache, and the cache now holds what the 0.45 probe alone would have
	// left — whichever client finished first. Every candidate is therefore
	// decided from its stored state: the repeat compares no hashes (so the
	// 0.65 "first run" may itself have compared none, if 0.45 won the race)
	// and answers all of the first run's candidates as cache hits. Both runs
	// stored every candidate, so each repeat walks the same rows' stored
	// evidence instead of generating their candidates.
	walked := -1
	for i, th := range thresholds {
		first := results[i]
		var rep probeResponse
		if st := call(t, "POST", ts.URL+"/v1/sessions/"+id+"/probe",
			map[string]any{"threshold": th}, &rep); st != 200 {
			t.Fatalf("repeat probe t=%v: status %d", th, st)
		}
		if rep.HashesCompared != 0 || rep.Candidates != 0 || rep.Pruned != 0 ||
			rep.CacheHits != first.Candidates+first.CacheHits {
			t.Fatalf("repeat probe t=%v must be answered wholly from the cache the first run (%+v) shared, got %+v",
				th, first, rep)
		}
		if rep.PairCount < first.PairCount {
			t.Fatalf("repeat probe t=%v lost pairs: %d -> %d (evidence must be monotone)",
				th, first.PairCount, rep.PairCount)
		}
		if rep.RowsWalked == 0 || (walked >= 0 && rep.RowsWalked != walked) {
			t.Fatalf("repeat probe t=%v walked %d rows, the other repeat %d", th, rep.RowsWalked, walked)
		}
		walked = rep.RowsWalked
	}
}

// TestProbeSingleflight pins the coalescing contract deterministically: a
// request that arrives while a probe at the same threshold is in flight
// attaches to it instead of re-running the engine.
func TestProbeSingleflight(t *testing.T) {
	ds, err := dataset.Load(dataset.Spec{Kind: "toy", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	mgr := NewManager(1)
	ms, err := mgr.Create(ds, bayeslsh.DefaultParams(), 1)
	if err != nil {
		t.Fatal(err)
	}

	// Plant an in-flight probe at t=0.5 by hand.
	want := &bayeslsh.Result{Threshold: 0.5}
	f := &probeFlight{done: make(chan struct{}), res: want}
	ms.flightMu.Lock()
	ms.flight = map[float64]*probeFlight{0.5: f}
	ms.flightMu.Unlock()

	got := make(chan *bayeslsh.Result, 1)
	var coal bool
	go func() {
		res, coalesced, err := ms.Probe(0.5, 0, &mgr.stats)
		if err != nil {
			t.Errorf("coalesced probe: %v", err)
		}
		coal = coalesced
		got <- res
	}()
	select {
	case <-got:
		t.Fatal("probe returned before the in-flight run finished")
	case <-time.After(20 * time.Millisecond):
	}
	close(f.done)
	if res := <-got; res != want || !coal {
		t.Fatalf("want the in-flight result (coalesced), got %v coalesced=%v", res, coal)
	}
	if n := mgr.stats.ProbesCoalesced.Load(); n != 1 {
		t.Fatalf("want 1 coalesced probe in stats, got %d", n)
	}

	// A different threshold must not coalesce.
	ms.flightMu.Lock()
	ms.flight = nil
	ms.flightMu.Unlock()
	if _, coalesced, err := ms.Probe(0.6, 0, &mgr.stats); err != nil || coalesced {
		t.Fatalf("fresh probe: err=%v coalesced=%v", err, coalesced)
	}
}

func TestLRUEvictionUnderCapacity(t *testing.T) {
	srv, ts := newTestServer(t, 2)

	id1 := createToy(t, ts.URL)
	id2 := createToy(t, ts.URL)
	// Touch id2 then id1 so id2 is the least recently used.
	call(t, "GET", ts.URL+"/v1/sessions/"+id2, nil, nil)
	call(t, "GET", ts.URL+"/v1/sessions/"+id1, nil, nil)

	id3 := createToy(t, ts.URL)
	if st := call(t, "GET", ts.URL+"/v1/sessions/"+id2, nil, nil); st != http.StatusNotFound {
		t.Fatalf("LRU session %s should have been evicted, got status %d", id2, st)
	}
	for _, id := range []string{id1, id3} {
		if st := call(t, "GET", ts.URL+"/v1/sessions/"+id, nil, nil); st != 200 {
			t.Fatalf("session %s should have survived eviction, got %d", id, st)
		}
	}
	if n := srv.Manager().stats.SessionsEvicted.Load(); n != 1 {
		t.Fatalf("want 1 eviction in stats, got %d", n)
	}
}

func TestBusySessionsAreNotEvicted(t *testing.T) {
	srv, ts := newTestServer(t, 1)
	id := createToy(t, ts.URL)

	// Hold the only session so it is busy, then try to admit another.
	_, release, err := srv.Manager().Acquire(id)
	if err != nil {
		t.Fatal(err)
	}
	var envelope errorEnvelope
	st := call(t, "POST", ts.URL+"/v1/sessions",
		map[string]any{"dataset": map[string]any{"kind": "toy"}}, &envelope)
	if st != http.StatusServiceUnavailable || envelope.Error.Code != "capacity" {
		t.Fatalf("create at capacity with all sessions busy: want 503/capacity, got %d %+v", st, envelope)
	}

	release()
	if id2 := createToy(t, ts.URL); id2 == id {
		t.Fatalf("new session reused id %s", id2)
	}
	if st := call(t, "GET", ts.URL+"/v1/sessions/"+id, nil, nil); st != http.StatusNotFound {
		t.Fatalf("idle session should now have been evicted, got %d", st)
	}
}

func TestErrorPaths(t *testing.T) {
	_, ts := newTestServer(t, 2)
	id := createToy(t, ts.URL)

	post := func(url, body string) (int, errorEnvelope) {
		t.Helper()
		resp, err := http.Post(url, "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var env errorEnvelope
		_ = json.NewDecoder(resp.Body).Decode(&env)
		return resp.StatusCode, env
	}

	cases := []struct {
		name   string
		status int
		code   string
		run    func() (int, errorEnvelope)
	}{
		{"malformed JSON on create", 400, "bad_request", func() (int, errorEnvelope) {
			return post(ts.URL+"/v1/sessions", "{not json")
		}},
		{"unknown field on create", 400, "bad_request", func() (int, errorEnvelope) {
			return post(ts.URL+"/v1/sessions", `{"bogus": 1}`)
		}},
		{"no source on create", 400, "bad_request", func() (int, errorEnvelope) {
			return post(ts.URL+"/v1/sessions", `{"seed": 1}`)
		}},
		{"unknown table", 400, "bad_request", func() (int, errorEnvelope) {
			return post(ts.URL+"/v1/sessions", `{"dataset":{"kind":"table","name":"nope"}}`)
		}},
		{"unknown kind", 400, "bad_request", func() (int, errorEnvelope) {
			return post(ts.URL+"/v1/sessions", `{"dataset":{"kind":"nope"}}`)
		}},
		{"malformed JSON on probe", 400, "bad_request", func() (int, errorEnvelope) {
			return post(ts.URL+"/v1/sessions/"+id+"/probe", "{{")
		}},
		{"out-of-range threshold", 400, "bad_request", func() (int, errorEnvelope) {
			return post(ts.URL+"/v1/sessions/"+id+"/probe", `{"threshold": 7}`)
		}},
		{"probe on unknown session", 404, "not_found", func() (int, errorEnvelope) {
			return post(ts.URL+"/v1/sessions/zz/probe", `{"threshold": 0.5}`)
		}},
		{"bad sparse upload", 400, "bad_request", func() (int, errorEnvelope) {
			return post(ts.URL+"/v1/sessions", `{"sparse":{"dim":4,"rows":[{"indices":[0,0]},{"indices":[1]}]}}`)
		}},
		{"persist without a blob store", 400, "bad_request", func() (int, errorEnvelope) {
			return post(ts.URL+"/v1/sessions/"+id+"/snapshot?persist=1", "")
		}},
		{"persist on unknown session", 404, "not_found", func() (int, errorEnvelope) {
			return post(ts.URL+"/v1/sessions/zz/snapshot?persist=1", "")
		}},
	}
	for _, tc := range cases {
		st, env := tc.run()
		if st != tc.status || env.Error.Code != tc.code {
			t.Errorf("%s: want %d/%s, got %d/%s (%s)", tc.name, tc.status, tc.code, st, env.Error.Code, env.Error.Message)
		}
	}

	// GET-side error paths.
	var env errorEnvelope
	if st := call(t, "GET", ts.URL+"/v1/sessions/"+id+"/cues", nil, &env); st != 400 || env.Error.Code != "bad_request" {
		t.Errorf("cues without t: want 400/bad_request, got %d/%s", st, env.Error.Code)
	}
	// NaN must be rejected, not encoded into a response (a NaN reaching the
	// JSON encoder used to yield a 200 with an empty body).
	if st := call(t, "GET", ts.URL+"/v1/sessions/"+id+"/cues?t=NaN", nil, &env); st != 400 || env.Error.Code != "bad_request" {
		t.Errorf("cues with t=NaN: want 400/bad_request, got %d/%s", st, env.Error.Code)
	}
	// Malformed optional query parameters are a client error, never a silent
	// fallback to the default (a `?steps=abc` typo must not quietly run with
	// steps=14 while a bad `t` gets a 400).
	for _, q := range []string{"lo=NaN", "lo=abc", "hi=Inf", "steps=abc", "steps=1e9", "steps=99999999999999999999"} {
		if st := call(t, "GET", ts.URL+"/v1/sessions/"+id+"/curve?"+q, nil, &env); st != 400 || env.Error.Code != "bad_request" {
			t.Errorf("curve with %s: want 400/bad_request, got %d/%s", q, st, env.Error.Code)
		}
	}
	if st := call(t, "GET", ts.URL+"/v1/sessions/"+id+"/cues?t=0.5&bins=zero", nil, &env); st != 400 || env.Error.Code != "bad_request" {
		t.Errorf("cues with bins=zero: want 400/bad_request, got %d/%s", st, env.Error.Code)
	}
	if st := call(t, "GET", ts.URL+"/v1/sessions/"+id+"/graph?t=0.5&top=ten", nil, &env); st != 400 || env.Error.Code != "bad_request" {
		t.Errorf("graph with top=ten: want 400/bad_request, got %d/%s", st, env.Error.Code)
	}
	// Absent optional parameters still take their defaults.
	if st := call(t, "GET", ts.URL+"/v1/sessions/"+id+"/curve", nil, nil); st != 200 {
		t.Errorf("curve with no params: want 200, got %d", st)
	}
	// Out-of-range sweep targets can never match any similarity.
	var tgt errorEnvelope
	if st := call(t, "POST", ts.URL+"/v1/sessions/"+id+"/sweep",
		map[string]any{"threshold": 0.5, "targets": []float64{7.5, -40}}, &tgt); st != 400 || tgt.Error.Code != "bad_request" {
		t.Errorf("sweep with out-of-range targets: want 400/bad_request, got %d/%s", st, tgt.Error.Code)
	}
	var sw errorEnvelope
	big := make([]float64, 300)
	if st := call(t, "POST", ts.URL+"/v1/sessions/"+id+"/sweep",
		map[string]any{"threshold": 0.5, "targets": big}, &sw); st != 400 || sw.Error.Code != "bad_request" {
		t.Errorf("sweep with 300 targets: want 400/bad_request, got %d/%s", st, sw.Error.Code)
	}
	if st := call(t, "GET", ts.URL+"/v1/sessions/zz/curve", nil, &env); st != 404 {
		t.Errorf("curve on unknown session: want 404, got %d", st)
	}
}

// TestHTTPMatchesDirect is the determinism check: a probe through the HTTP
// surface returns exactly the pairs the same probe yields on a core.Session
// driven directly.
func TestHTTPMatchesDirect(t *testing.T) {
	_, ts := newTestServer(t, 2)
	spec := dataset.Spec{Kind: "corpus", Name: "twitter", Rows: 120, Seed: 7}

	var info sessionInfo
	if st := call(t, "POST", ts.URL+"/v1/sessions",
		map[string]any{"dataset": spec, "seed": 7}, &info); st != http.StatusCreated {
		t.Fatalf("create: status %d", st)
	}
	var viaHTTP probeResponse
	if st := call(t, "POST", ts.URL+"/v1/sessions/"+info.ID+"/probe",
		map[string]any{"threshold": 0.6, "includePairs": true}, &viaHTTP); st != 200 {
		t.Fatalf("probe: status %d", st)
	}

	ds, err := dataset.Load(spec)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := core.NewSession(ds, bayeslsh.DefaultParams(), 7).Probe(0.6)
	if err != nil {
		t.Fatal(err)
	}

	if viaHTTP.PairCount != len(direct.Pairs) {
		t.Fatalf("pair count: HTTP %d vs direct %d", viaHTTP.PairCount, len(direct.Pairs))
	}
	for i, p := range direct.Pairs {
		hp := viaHTTP.Pairs[i]
		if hp.I != p.I || hp.J != p.J || fmt.Sprintf("%.9f", hp.Est) != fmt.Sprintf("%.9f", p.Est) {
			t.Fatalf("pair %d: HTTP %+v vs direct %+v", i, hp, p)
		}
	}
	if viaHTTP.HashesCompared != direct.HashesCompared || viaHTTP.Candidates != direct.Candidates {
		t.Fatalf("cost counters diverge: HTTP %+v vs direct %+v", viaHTTP, direct)
	}
}

func TestUploadedDatasets(t *testing.T) {
	_, ts := newTestServer(t, 2)

	var info sessionInfo
	st := call(t, "POST", ts.URL+"/v1/sessions", map[string]any{
		"dense":   [][]float64{{1, 0, 0}, {0.9, 0.1, 0}, {0, 0, 1}, {0, 0.1, 0.9}},
		"measure": "cosine",
		"name":    "mini",
	}, &info)
	if st != http.StatusCreated || info.Rows != 4 || info.Dataset != "mini" {
		t.Fatalf("dense upload: status %d info %+v", st, info)
	}
	var probe probeResponse
	if st := call(t, "POST", ts.URL+"/v1/sessions/"+info.ID+"/probe",
		map[string]any{"threshold": 0.8, "includePairs": true}, &probe); st != 200 {
		t.Fatalf("probe uploaded: status %d", st)
	}
	if probe.PairCount < 2 {
		t.Fatalf("dense upload should have >= 2 similar pairs at 0.8, got %+v", probe)
	}

	st = call(t, "POST", ts.URL+"/v1/sessions", map[string]any{
		"sparse": map[string]any{"dim": 5, "rows": []map[string]any{
			{"indices": []int{0, 1, 2}},
			{"indices": []int{0, 1, 2}},
			{"indices": []int{3, 4}},
		}},
		"measure": "jaccard",
	}, &info)
	if st != http.StatusCreated || info.Measure != "jaccard" {
		t.Fatalf("sparse upload: status %d info %+v", st, info)
	}
}
