package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"plasmahd/internal/bayeslsh"
	"plasmahd/internal/core"
	"plasmahd/internal/dataset"
	"plasmahd/internal/vec"
)

// Route is one registered endpoint. The table is the single source of truth:
// the mux is built from it and the docs test asserts docs/API.md covers it.
type Route struct {
	Method  string
	Pattern string // mux pattern without the method, e.g. /v1/sessions/{id}/probe
	Summary string
	handler http.HandlerFunc
}

// routeTable builds the endpoint table. New calls it once.
func (s *Server) routeTable() []Route {
	return []Route{
		{"GET", "/healthz", "liveness check", s.json(s.handleHealthz)},
		{"GET", "/metrics", "Prometheus text exposition of the metrics registry", s.handleMetrics},
		{"GET", "/v1/stats", "JSON view of the metrics registry's unlabeled families", s.handleStats},
		{"GET", "/v1/datasets", "built-in dataset generators by kind", s.json(s.handleDatasets)},
		{"POST", "/v1/sessions", "create a session from a named generator or uploaded data", s.json(s.handleCreateSession)},
		{"GET", "/v1/sessions", "list resident sessions", s.json(s.handleListSessions)},
		{"GET", "/v1/sessions/{id}", "one session's summary", s.json(s.handleGetSession)},
		{"DELETE", "/v1/sessions/{id}", "delete a session", s.json(s.handleDeleteSession)},
		{"POST", "/v1/sessions/{id}/rows", "append rows to the session's dataset, sketched into the live cache", s.json(s.handleAppendRows)},
		{"POST", "/v1/sessions/{id}/probe", "run (or join) a probe at a threshold", s.json(s.handleProbe)},
		{"POST", "/v1/sessions/{id}/probes", "run a batch of probes at several thresholds in one round trip", s.json(s.handleBatchProbe)},
		{"POST", "/v1/sessions/{id}/snapshot", "serialize the session's knowledge cache to a binary snapshot", s.handleSnapshot},
		{"POST", "/v1/sessions/restore", "recreate a session from an uploaded binary snapshot", s.json(s.handleRestore)},
		{"GET", "/v1/sessions/{id}/curve", "cumulative APSS curve over a threshold grid, with knee", s.json(s.handleCurve)},
		{"GET", "/v1/sessions/{id}/graph", "threshold graph summary with degree/density profile", s.json(s.handleGraph)},
		{"GET", "/v1/sessions/{id}/cues", "visual cues: triangle histogram and density profile", s.json(s.handleCues)},
		{"POST", "/v1/sessions/{id}/sweep", "incremental probe with extrapolated snapshots", s.json(s.handleSweep)},
	}
}

// ---- JSON envelope ----

type errorBody struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// errorEnvelope is the uniform error shape of every non-2xx response.
type errorEnvelope struct {
	Error errorBody `json:"error"`
}

func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	// Encode before writing the header so an encode failure can still
	// become a 500 envelope instead of a success status with an empty body.
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		s.mgr.stats.Errors.Add(1)
		status = http.StatusInternalServerError
		buf.Reset()
		fmt.Fprintf(&buf, `{"error":{"code":"internal","message":"response encoding failed: %s"}}`+"\n",
			strings.ReplaceAll(err.Error(), `"`, `'`))
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(buf.Bytes())
}

func (s *Server) writeError(w http.ResponseWriter, status int, code, format string, args ...any) {
	s.mgr.stats.Errors.Add(1)
	s.writeJSON(w, status, errorEnvelope{Error: errorBody{Code: code, Message: fmt.Sprintf(format, args...)}})
}

// endpoint is the shape of every JSON route handler: it reads the request
// and returns the response as values. It never holds a ResponseWriter, so it
// cannot bypass the envelope or the error counter behind it. status and body
// are ignored when err is non-nil. Only the two registry views, /metrics and
// /v1/stats (rendered by the registry, with no error to report), and
// .../snapshot's binary stream keep http.HandlerFunc; its ?persist=1 half is
// an endpoint.
type endpoint func(r *http.Request) (status int, body any, err error)

// json mounts an endpoint on the envelope.
func (s *Server) json(fn endpoint) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		status, body, err := fn(r)
		if err != nil {
			s.fail(w, err)
			return
		}
		s.writeJSON(w, status, body)
	}
}

// apiError is a failure that knows its HTTP status and envelope code. Any
// other error an endpoint returns is a 500 "internal".
type apiError struct {
	status    int
	code, msg string
}

func (e *apiError) Error() string { return e.msg }

func apiErr(status int, code, format string, args ...any) *apiError {
	return &apiError{status, code, fmt.Sprintf(format, args...)}
}

func badRequest(format string, args ...any) *apiError {
	return apiErr(http.StatusBadRequest, "bad_request", format, args...)
}

func notFound(id string) *apiError {
	return apiErr(http.StatusNotFound, "not_found", "no session %q", id)
}

// fail writes err as the error envelope.
func (s *Server) fail(w http.ResponseWriter, err error) {
	var ae *apiError
	if !errors.As(err, &ae) {
		ae = apiErr(http.StatusInternalServerError, "internal", "%v", err)
	}
	s.writeError(w, ae.status, ae.code, "%s", ae.msg)
}

// decodeJSON strictly decodes a request body into v: 413 when the body blew
// past the configured cap (the middleware's MaxBytesReader), 400 for
// malformed JSON, unknown fields, or trailing garbage after the JSON value.
func decodeJSON(r *http.Request, v any) error { return decodeFrom(r.Body, v) }

// decodeFrom is decodeJSON over any reader of a body.
func decodeFrom(body io.Reader, v any) error {
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			return apiErr(http.StatusRequestEntityTooLarge, "too_large",
				"request body exceeds the %d-byte limit", tooBig.Limit)
		}
		return badRequest("invalid JSON body: %v", err)
	}
	// One JSON value is the whole body; trailing garbage is an error, not
	// silently ignored input.
	var trailing json.RawMessage
	if err := dec.Decode(&trailing); err != io.EOF {
		return badRequest("trailing data after JSON body")
	}
	return nil
}

// validThreshold reports whether t is a similarity threshold: in [-1, 1],
// which NaN is not.
func validThreshold(t float64) bool { return t >= -1 && t <= 1 }

// query reads URL query parameters with a sticky error, in the style of
// wire.Codec: read every parameter, then check err once. After a failure
// later reads are skipped and the first error stands. A present-but-
// unparseable value is always an error — never a silent fallback to the
// default, which would make `?steps=abc` quietly run with steps=14 while a
// malformed `t` gets a 400.
type query struct {
	vals url.Values
	err  error
}

func queryOf(r *http.Request) *query { return &query{vals: r.URL.Query()} }

// raw returns the parameter's text, "" when it is absent or a read failed.
func (q *query) raw(key string) string {
	if q.err != nil {
		return ""
	}
	return q.vals.Get(key)
}

// int reads an optional integer parameter; def when absent.
func (q *query) int(key string, def int) int {
	raw := q.raw(key)
	if raw == "" {
		return def
	}
	v, err := strconv.Atoi(raw)
	if err != nil {
		q.err = badRequest("%s must be an integer, got %q", key, raw)
		return 0
	}
	return v
}

// float reads an optional finite float parameter; def when absent.
func (q *query) float(key string, def float64) float64 {
	raw := q.raw(key)
	if raw == "" {
		return def
	}
	v, err := strconv.ParseFloat(raw, 64)
	if err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
		q.err = badRequest("%s must be a finite number, got %q", key, raw)
		return 0
	}
	return v
}

// threshold reads the required t parameter, a number in [-1, 1].
func (q *query) threshold() float64 {
	if q.err != nil {
		return 0
	}
	raw := q.vals.Get("t")
	if raw == "" {
		q.err = badRequest("missing required query parameter t")
		return 0
	}
	t, err := strconv.ParseFloat(raw, 64)
	if err != nil || !validThreshold(t) {
		q.err = badRequest("t must be a number in [-1, 1], got %q", raw)
		return 0
	}
	return t
}

// detach runs fn on its own goroutine and waits for it or for the request's
// deadline, whichever comes first. On the deadline the caller gets a 503
// "timeout" at once while fn runs on: a probe keeps its session busy
// (eviction-exempt) until it finishes and its evidence still lands in the
// cache, so release runs when fn returns, not when the request does. The
// recovery middleware cannot reach this goroutine, so a panic in fn becomes
// an error naming what, not a process crash for every tenant. This is the
// only go statement in request handling: the goroutine lives exactly as
// long as fn, and its one send to the buffered channel never blocks.
func detach[T any](r *http.Request, release func(), what string, fn func() (T, error)) (T, error) {
	type outcome struct {
		v   T
		err error
	}
	ch := make(chan outcome, 1)
	go func() {
		defer release()
		defer func() {
			if rec := recover(); rec != nil {
				ch <- outcome{err: fmt.Errorf("%s panicked: %v", what, rec)}
			}
		}()
		v, err := fn()
		ch <- outcome{v, err}
	}()
	select {
	case <-r.Context().Done():
		var zero T
		return zero, apiErr(http.StatusServiceUnavailable, "timeout",
			"%s still running; its evidence will land in the session cache", what)
	case out := <-ch:
		return out.v, out.err
	}
}

// ---- handlers ----

func (s *Server) handleHealthz(r *http.Request) (int, any, error) {
	return http.StatusOK, map[string]string{"status": "ok"}, nil
}

// handleMetrics serves the Prometheus text exposition. The whole scrape is
// rendered into one buffer and written in a single call, so a concurrent
// scrape never sees a torn exposition even under heavy probe traffic.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var buf bytes.Buffer
	if err := s.mgr.Registry().WritePrometheus(&buf); err != nil {
		s.writeError(w, http.StatusInternalServerError, "internal", "metrics render failed: %v", err)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(buf.Bytes())
}

// handleStats serves the JSON view of the registry: every unlabeled family
// of /metrics, keyed by name. The registry renders the object itself, so
// it is written as is rather than re-encoded through the envelope.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(append(s.mgr.Registry().JSON(), '\n'))
}

func (s *Server) handleDatasets(r *http.Request) (int, any, error) {
	return http.StatusOK, map[string]any{"sources": dataset.Sources()}, nil
}

func (s *Server) handleCreateSession(r *http.Request) (int, any, error) {
	// The body decodes over the defaults: a field it leaves out or sets to
	// null keeps its default, the daemon's worker count included.
	req := createSessionRequest{Params: paramsJSON(bayeslsh.DefaultParams())}
	if s.cfg.Workers > 0 {
		req.Params.Workers = s.cfg.Workers
	}
	if err := decodeUpload(r, &req, scanCreate); err != nil {
		return 0, nil, err
	}
	// Validate before loading: a rejected request should not pay for (or
	// generate) its dataset first.
	params := bayeslsh.Params(req.Params)
	if err := params.Validate(); err != nil {
		return 0, nil, badRequest("params: %v", err)
	}
	ds, err := s.resolveDataset(&req)
	if err != nil {
		return 0, nil, badRequest("%v", err)
	}
	ms, err := s.mgr.Create(ds, params, req.Seed)
	if err != nil { // ErrCapacity: the only way an admission fails
		return 0, nil, apiErr(http.StatusServiceUnavailable, "capacity", "%v", err)
	}
	return http.StatusCreated, sessionInfoOf(ms), nil
}

// resolveDataset turns a create request into a dataset: exactly one of the
// named spec, the dense upload, or the sparse upload must be present.
func (s *Server) resolveDataset(req *createSessionRequest) (*vec.Dataset, error) {
	set := 0
	for _, present := range []bool{req.Dataset != nil, req.Dense != nil, req.Sparse != nil} {
		if present {
			set++
		}
	}
	if set != 1 {
		return nil, fmt.Errorf("exactly one of dataset, dense, or sparse must be set (got %d)", set)
	}
	if req.Dataset != nil {
		if req.Dataset.Seed == 0 {
			req.Dataset.Seed = req.Seed
		}
		return dataset.Load(*req.Dataset)
	}
	measure := vec.CosineSim
	switch req.Measure {
	case "", "cosine":
	case "jaccard":
		measure = vec.JaccardSim
	default:
		return nil, fmt.Errorf("unknown measure %q (want cosine or jaccard)", req.Measure)
	}
	name := req.Name
	if name == "" {
		name = "uploaded"
	}
	// The name is stored verbatim in session snapshots (length-capped
	// there); bound it here so every created session stays snapshottable.
	if len(name) > 256 {
		return nil, fmt.Errorf("name must be at most 256 bytes, got %d", len(name))
	}
	if req.Dense != nil {
		if len(req.Dense) < 2 {
			return nil, fmt.Errorf("dense upload needs at least 2 rows, got %d", len(req.Dense))
		}
		for ri, row := range req.Dense {
			if len(row) > vec.MaxDim {
				return nil, fmt.Errorf("dense row %d has %d entries, at most %d", ri, len(row), vec.MaxDim)
			}
		}
		ds := vec.FromDenseMatrix(name, req.Dense, measure)
		if ds.Dim < 1 { // a cache over no dimension cannot be snapshotted
			return nil, fmt.Errorf("dense upload needs a row with at least one entry")
		}
		ds.NormalizeRows()
		return ds, nil
	}
	up := req.Sparse
	if len(up.Rows) < 2 || up.Dim < 1 || up.Dim > vec.MaxDim {
		return nil, fmt.Errorf("sparse upload needs dim in [1, %d] and at least 2 rows", vec.MaxDim)
	}
	rows, err := uploadRows(up.Rows, up.Dim, measure)
	if err != nil {
		return nil, err
	}
	ds := &vec.Dataset{Name: name, Dim: up.Dim, Measure: measure, Rows: rows}
	ds.NormalizeRows()
	return ds, nil
}

func (s *Server) handleListSessions(r *http.Request) (int, any, error) {
	list := s.mgr.List()
	infos := make([]sessionInfo, len(list))
	for i, ms := range list {
		infos[i] = sessionInfoOf(ms)
	}
	return http.StatusOK, map[string]any{"sessions": infos}, nil
}

func (s *Server) handleGetSession(r *http.Request) (int, any, error) {
	ms, release, err := s.acquire(r)
	if err != nil {
		return 0, nil, err
	}
	defer release()
	return http.StatusOK, sessionInfoOf(ms), nil
}

func (s *Server) handleDeleteSession(r *http.Request) (int, any, error) {
	id := r.PathValue("id")
	// Resident or spilled: the blob goes too, so it cannot resurrect.
	if err := s.mgr.Delete(id); err != nil {
		return 0, nil, notFound(id)
	}
	return http.StatusOK, map[string]string{"deleted": id}, nil
}

// maxAppendRows caps one append call; larger ingests batch across calls,
// which is also how the epoch-based index rebuild amortizes best.
const maxAppendRows = 65536

// handleAppendRows grows a live session: the rows are validated against the
// session's dimension, sketched incrementally into the knowledge cache (no
// re-sketch of existing rows), and published to the dataset view. Probes
// already in flight keep their pinned pre-append view; the next probe sees
// the grown session. Appended rows go through the same row step as the
// create path (vec.Dataset.NormalizeRows), so a grown session is
// bitwise-equivalent to one created from the full data up front.
func (s *Server) handleAppendRows(r *http.Request) (int, any, error) {
	var req appendRowsRequest
	if err := decodeUpload(r, &req, scanAppend); err != nil {
		return 0, nil, err
	}
	if (req.Dense != nil) == (req.Sparse != nil) {
		return 0, nil, badRequest("exactly one of dense or sparse must be set")
	}
	count := len(req.Dense) + len(req.Sparse)
	if count == 0 {
		return 0, nil, badRequest("no rows to append")
	}
	if count > maxAppendRows {
		return 0, nil, badRequest("at most %d rows per append call, got %d", maxAppendRows, count)
	}
	ms, release, err := s.acquire(r)
	if err != nil {
		return 0, nil, err
	}
	defer release()
	ds := ms.Session.Dataset()
	dim := ds.Dim
	rows := make([]vec.Sparse, 0, len(req.Dense))
	for ri, drow := range req.Dense {
		if len(drow) > dim {
			return 0, nil, badRequest("dense row %d has %d entries, session dimension is %d", ri, len(drow), dim)
		}
		rows = append(rows, vec.FromDense(drow))
	}
	if req.Sparse != nil {
		if rows, err = uploadRows(req.Sparse, dim, ds.Measure); err != nil {
			return 0, nil, badRequest("%v", err)
		}
	}
	// The create path's row step over the batch (it is row-local), so split
	// ingests stay bitwise-identical to full uploads.
	batch := vec.Dataset{Measure: ds.Measure, Rows: rows}
	batch.NormalizeRows()
	d, err := ms.Session.AppendRows(rows)
	if err != nil {
		return 0, nil, fmt.Errorf("append failed: %w", err)
	}
	s.rowsAppended.Add(int64(count))
	return http.StatusOK, appendRowsResponse{
		SessionID:    ms.ID,
		Appended:     count,
		Rows:         ms.Session.Dataset().N(),
		AppendEpoch:  ms.Session.AppendEpoch(),
		SketchMillis: float64(d) / float64(time.Millisecond),
	}, nil
}

func (s *Server) handleProbe(r *http.Request) (int, any, error) {
	var req probeRequest
	if err := decodeJSON(r, &req); err != nil {
		return 0, nil, err
	}
	if !validThreshold(req.Threshold) {
		return 0, nil, badRequest("threshold must be in [-1, 1], got %v", req.Threshold)
	}
	ms, release, err := s.acquire(r)
	if err != nil {
		return 0, nil, err
	}
	resp, err := detach(r, release, fmt.Sprintf("probe at t=%v", req.Threshold), func() (probeResponse, error) {
		res, coalesced, err := ms.Probe(req.Threshold, req.Workers, &s.mgr.stats)
		if err != nil {
			return probeResponse{}, fmt.Errorf("probe failed: %w", err)
		}
		return probeResponseOf(ms.ID, req.Threshold, res, coalesced, req.IncludePairs, req.MaxPairs), nil
	})
	return http.StatusOK, resp, err
}

// probeResponseOf renders one probe result; the batch endpoint embeds the
// same rendering, so a batch item is a single-probe response.
func probeResponseOf(id string, t float64, res *bayeslsh.Result, coalesced, includePairs bool, maxPairs int) probeResponse {
	resp := probeResponse{
		SessionID:      id,
		Threshold:      t,
		PairCount:      len(res.Pairs),
		Candidates:     res.Candidates,
		Pruned:         res.Pruned,
		CacheHits:      res.CacheHits,
		HashesCompared: res.HashesCompared,
		RowsWalked:     res.RowsWalked,
		ProcessMillis:  float64(res.ProcessTime) / float64(time.Millisecond),
		Coalesced:      coalesced,
	}
	if includePairs {
		pairs := res.Pairs
		if maxPairs > 0 && len(pairs) > maxPairs {
			pairs = pairs[:maxPairs]
		}
		resp.Pairs = pairs
	}
	return resp
}

func (s *Server) handleCurve(r *http.Request) (int, any, error) {
	// Parse before acquire: an invalid request must not busy-mark the
	// session (or revive a spilled one) just to be told it is malformed.
	q := queryOf(r)
	lo, hi, steps := q.float("lo", 0.3), q.float("hi", 0.95), q.int("steps", 14)
	if q.err != nil {
		return 0, nil, q.err
	}
	if steps < 1 || steps > 10000 || hi < lo {
		return 0, nil, badRequest("want lo <= hi and 1 <= steps <= 10000")
	}
	ms, release, err := s.acquire(r)
	if err != nil {
		return 0, nil, err
	}
	defer release()
	// ThresholdGrid clamps steps to 2 when lo < hi, so a degenerate steps=1
	// sweep still evaluates both endpoints instead of silently dropping hi.
	grid := core.ThresholdGrid(lo, hi, steps)
	pts := ms.Session.CumulativeAPSS(grid)
	return http.StatusOK, curveResponse{SessionID: ms.ID, Points: pts, Knee: core.FindKnee(pts)}, nil
}

func (s *Server) handleGraph(r *http.Request) (int, any, error) {
	q := queryOf(r)
	t, top := q.threshold(), q.int("top", 50)
	if q.err != nil {
		return 0, nil, q.err
	}
	ms, release, err := s.acquire(r)
	if err != nil {
		return 0, nil, err
	}
	defer release()
	// The session's memoized cue layer serves every field: the threshold
	// graph (a full pair-cache scan) is materialized at most once per cache
	// state, shared with /cues and repeated same-threshold reads.
	cs := ms.Session.CueSet(t)
	g := cs.Graph()
	resp := graphResponse{
		SessionID:  ms.ID,
		Threshold:  t,
		Vertices:   g.N(),
		Edges:      g.M(),
		MeanDegree: g.MeanDegree(),
		Components: cs.Components(),
	}
	for v := 0; v < g.N(); v++ {
		if d := g.Degree(v); d > resp.MaxDegree {
			resp.MaxDegree = d
		} else if d == 0 {
			resp.Isolated++
		}
	}
	hist := make([]int, resp.MaxDegree+1)
	for v := 0; v < g.N(); v++ {
		hist[g.Degree(v)]++
	}
	resp.DegreeHistogram = hist
	resp.DensityProfile = topK(cs.DensityProfile(), top)
	return http.StatusOK, resp, nil
}

func (s *Server) handleCues(r *http.Request) (int, any, error) {
	q := queryOf(r)
	t, bins, top := q.threshold(), q.int("bins", 8), q.int("top", 50)
	if q.err != nil {
		return 0, nil, q.err
	}
	if bins < 1 || bins > 1000 {
		return 0, nil, badRequest("bins must be in [1, 1000]")
	}
	ms, release, err := s.acquire(r)
	if err != nil {
		return 0, nil, err
	}
	defer release()
	// The memoized cue layer materializes the threshold graph and its
	// triangle incidences at most once per cache state: the incidences give
	// both the count (each triangle is incident on 3 vertices) and the
	// Fig 2.5b histogram, the cores give the Fig 2.5c profile, and the curve
	// estimate is memoized beside them, so a repeated read scans nothing.
	cs := ms.Session.CueSet(t)
	return http.StatusOK, cuesResponse{
		SessionID:         ms.ID,
		Threshold:         t,
		Triangles:         cs.Triangles(),
		TriangleHistogram: *cs.TriangleHistogram(bins),
		DensityProfile:    topK(cs.DensityProfile(), top),
		CurveAt:           cs.CurveEstimate(),
	}, nil
}

func (s *Server) handleSweep(r *http.Request) (int, any, error) {
	var req sweepRequest
	if err := decodeJSON(r, &req); err != nil {
		return 0, nil, err
	}
	if !validThreshold(req.Threshold) {
		return 0, nil, badRequest("threshold must be in [-1, 1], got %v", req.Threshold)
	}
	// Each snapshot is one counting pass over the pair cache plus a Beta
	// tail per distinct evidence state and target, so both knobs are capped
	// like curve's steps and cues' bins.
	if len(req.Targets) > 256 {
		return 0, nil, badRequest("at most 256 targets, got %d", len(req.Targets))
	}
	// Every target is a similarity: values outside [-1, 1] can never match
	// any pair, so an out-of-range target is a client error, mirroring the
	// threshold check above.
	for _, tgt := range req.Targets {
		if !validThreshold(tgt) {
			return 0, nil, badRequest("targets must be in [-1, 1], got %v", tgt)
		}
	}
	if req.Snapshots > 1000 {
		return 0, nil, badRequest("at most 1000 snapshots, got %d", req.Snapshots)
	}
	if len(req.Targets) == 0 {
		req.Targets = []float64{req.Threshold}
	}
	ms, release, err := s.acquire(r)
	if err != nil {
		return 0, nil, err
	}
	snaps, err := detach(r, release, fmt.Sprintf("sweep at t=%v", req.Threshold), func() ([]core.IncrementalSnapshot, error) {
		snaps, err := ms.Session.ProbeIncremental(req.Threshold, req.Targets, req.Snapshots)
		s.mgr.stats.Probes.Add(1)
		if err != nil {
			return nil, fmt.Errorf("sweep failed: %w", err)
		}
		return snaps, nil
	})
	if err != nil {
		return 0, nil, err
	}
	resp := sweepResponse{SessionID: ms.ID, Threshold: req.Threshold}
	for _, snap := range snaps {
		sj := snapshotJSON{PercentProcessed: snap.PercentProcessed, Estimates: make(map[string]float64, len(snap.Estimates))}
		for t2, est := range snap.Estimates {
			sj.Estimates[strconv.FormatFloat(t2, 'g', -1, 64)] = est
		}
		resp.Snapshots = append(resp.Snapshots, sj)
	}
	return http.StatusOK, resp, nil
}

// handleSnapshot serializes a session. By default the binary snapshot is
// streamed back to the client (application/octet-stream), ready to be fed
// to POST /v1/sessions/restore here or on another daemon. With ?persist=1
// the request is handlePersist's instead.
func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	if raw := r.URL.Query().Get("persist"); raw == "1" || raw == "true" {
		s.json(s.handlePersist)(w, r)
		return
	}
	ms, release, err := s.acquire(r)
	if err != nil {
		s.fail(w, err)
		return
	}
	defer release()
	// Stream the snapshot straight to the client instead of staging it in a
	// buffer: a staged copy would double-hold up to a full session in memory
	// per request, the footprint the streaming restore path of the opposite
	// direction was built to avoid. Every check the encoder runs already
	// held when the session's params, name and rows came in, so a failure
	// here is a writer's.
	w.Header().Set("Content-Type", "application/octet-stream")
	cw := &countWriter{w: w}
	if err := ms.Session.Snapshot(cw); err != nil {
		// Bytes may already be on the wire. Abort the connection so the
		// client sees a truncated (CRC-failing) stream, never a clean EOF
		// on a silently short snapshot.
		panic(http.ErrAbortHandler)
	}
	s.mgr.snapBytesOut.Add(cw.n)
}

// handlePersist writes a session's snapshot to the blob store (which
// requires -state-dir) instead of the client, and returns a JSON summary.
func (s *Server) handlePersist(r *http.Request) (int, any, error) {
	ms, release, err := s.acquire(r)
	if err != nil {
		return 0, nil, err
	}
	defer release()
	if s.mgr.store == nil {
		return 0, nil, badRequest("persist requires the daemon to run with -state-dir")
	}
	n, err := s.mgr.Persist(ms)
	if errors.Is(err, ErrNotFound) {
		// Deleted while this request held it: nothing was written.
		return 0, nil, notFound(ms.ID)
	}
	if err != nil {
		return 0, nil, apiErr(http.StatusInternalServerError, "internal", "snapshot failed: %v", err)
	}
	return http.StatusOK, map[string]any{
		"sessionId": ms.ID,
		"key":       stateKey(ms.ID),
		"bytes":     n,
	}, nil
}

// restore decodes a session snapshot from r, the one path restore uploads
// and revives share, and counts the bytes it consumed in
// plasmad_snapshot_bytes_in_total. The decoder reads scalars a few bytes at
// a time, so r is read through a buffer in blocks; a maxBytesTracker sits
// between the decoder and that buffer, so it counts exactly the bytes the
// decoder consumed, and reports the body cap (tooBig) only when the decoder
// itself needed bytes past it — not when the buffer merely read ahead
// into an upload's excess.
func (m *Manager) restore(r io.Reader) (sess *core.Session, tooBig *http.MaxBytesError, err error) {
	t := &maxBytesTracker{r: bufio.NewReaderSize(r, restoreBufferSize)}
	sess, err = core.RestoreSession(t, nil)
	m.snapBytesIn.Add(t.n)
	return sess, t.tooBig, err
}

// restoreBufferSize is the block restore reads its stream in.
const restoreBufferSize = 32 << 10

// maxBytesTracker passes reads through while remembering whether the
// middleware's http.MaxBytesReader tripped. The snapshot decoder wraps read
// errors into its own typed corruption errors, so without the tracker an
// oversized upload would be indistinguishable from a truncated one.
type maxBytesTracker struct {
	r      io.Reader
	n      int64 // bytes read so far
	tooBig *http.MaxBytesError
}

func (t *maxBytesTracker) Read(p []byte) (int, error) {
	n, err := t.r.Read(p)
	t.n += int64(n)
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		t.tooBig = mbe
	}
	return n, err
}

// handleRestore recreates a session from an uploaded binary snapshot under
// a fresh ID. The dataset is the rows the snapshot carries; a snapshot that
// fails validation is refused with the typed reason, never admitted as a
// silently-wrong cache. The body is
// decoded as a stream — RestoreSession never needs the whole upload in
// memory, and snapshots run to the (default 1 GiB) restore body cap.
func (s *Server) handleRestore(r *http.Request) (int, any, error) {
	sess, tooBig, err := s.mgr.restore(r.Body)
	if err != nil {
		if tooBig != nil {
			return 0, nil, apiErr(http.StatusRequestEntityTooLarge, "too_large",
				"snapshot exceeds the %d-byte limit", tooBig.Limit)
		}
		return 0, nil, apiErr(http.StatusBadRequest, "bad_snapshot", "%v", err)
	}
	ms := &ManagedSession{Session: sess, Created: time.Now()}
	if err := s.mgr.AdmitNew(ms); err != nil {
		return 0, nil, apiErr(http.StatusServiceUnavailable, "capacity", "%v", err)
	}
	return http.StatusCreated, sessionInfoOf(ms), nil
}

// topK truncates a profile to its first k entries (it is already sorted
// descending); k <= 0 keeps everything.
func topK(xs []int, k int) []int {
	if k > 0 && len(xs) > k {
		return xs[:k]
	}
	return xs
}
