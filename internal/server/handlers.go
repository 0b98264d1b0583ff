package server

import (
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

// Routes returns the server's endpoint table.
func (s *Server) Routes() []Route {
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
// .../snapshot (binary stream with a holdback) keep http.HandlerFunc.
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
func decodeJSON(r *http.Request, v any) error {
	dec := json.NewDecoder(r.Body)
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

// ---- wire types ----

// paramsJSON is the client-settable subset of bayeslsh.Params; nil fields
// keep the engine defaults.
type paramsJSON struct {
	Epsilon   *float64 `json:"epsilon,omitempty"`
	Delta     *float64 `json:"delta,omitempty"`
	Gamma     *float64 `json:"gamma,omitempty"`
	MaxHashes *int     `json:"maxHashes,omitempty"`
	Step      *int     `json:"step,omitempty"`
	Lite      *bool    `json:"lite,omitempty"`
	Workers   *int     `json:"workers,omitempty"`
}

func (pj *paramsJSON) apply(p bayeslsh.Params) bayeslsh.Params {
	if pj == nil {
		return p
	}
	if pj.Epsilon != nil {
		p.Epsilon = *pj.Epsilon
	}
	if pj.Delta != nil {
		p.Delta = *pj.Delta
	}
	if pj.Gamma != nil {
		p.Gamma = *pj.Gamma
	}
	if pj.MaxHashes != nil {
		p.MaxHashes = *pj.MaxHashes
	}
	if pj.Step != nil {
		p.Step = *pj.Step
	}
	if pj.Lite != nil {
		p.Lite = *pj.Lite
	}
	if pj.Workers != nil {
		p.Workers = *pj.Workers
	}
	return p
}

// sparseRow is one uploaded sparse vector; omitted values mean all-ones.
type sparseRow struct {
	Indices []int32   `json:"indices"`
	Values  []float64 `json:"values,omitempty"`
}

// vec validates row ri of an upload against the dimension and returns it
// as a sparse vector: one value per index (omitted values mean all-ones),
// indices strictly increasing in [0, dim).
func (row sparseRow) vec(ri, dim int) (vec.Sparse, error) {
	vals := row.Values
	if vals == nil {
		vals = make([]float64, len(row.Indices))
		for i := range vals {
			vals[i] = 1
		}
	}
	if len(vals) != len(row.Indices) {
		return vec.Sparse{}, fmt.Errorf("sparse row %d: %d indices but %d values", ri, len(row.Indices), len(vals))
	}
	for i, ix := range row.Indices {
		if ix < 0 || int(ix) >= dim {
			return vec.Sparse{}, fmt.Errorf("sparse row %d: index %d out of range [0, %d)", ri, ix, dim)
		}
		if i > 0 && row.Indices[i-1] >= ix {
			return vec.Sparse{}, fmt.Errorf("sparse row %d: indices must be strictly increasing", ri)
		}
	}
	return vec.Sparse{Indices: row.Indices, Values: vals}, nil
}

// sparseUpload is an uploaded sparse dataset.
type sparseUpload struct {
	Dim  int         `json:"dim"`
	Rows []sparseRow `json:"rows"`
}

// createSessionRequest asks for a new session over exactly one of a named
// generator spec (dataset), an uploaded dense matrix (dense), or an uploaded
// sparse dataset (sparse).
type createSessionRequest struct {
	Dataset *dataset.Spec `json:"dataset,omitempty"`
	Dense   [][]float64   `json:"dense,omitempty"`
	Sparse  *sparseUpload `json:"sparse,omitempty"`
	Measure string        `json:"measure,omitempty"` // uploads: "cosine" (default) or "jaccard"
	Name    string        `json:"name,omitempty"`    // uploads: display name
	Params  *paramsJSON   `json:"params,omitempty"`
	Seed    int64         `json:"seed,omitempty"`
}

// sessionInfo is the JSON summary of one session.
type sessionInfo struct {
	ID            string    `json:"id"`
	Dataset       string    `json:"dataset"`
	Rows          int       `json:"rows"`
	Dim           int       `json:"dim"`
	Measure       string    `json:"measure"`
	Probes        int       `json:"probes"`
	CachedPairs   int       `json:"cachedPairs"`
	Thresholds    []float64 `json:"thresholds,omitempty"`
	SketchMillis  float64   `json:"sketchMillis"`
	ProcessMillis float64   `json:"processMillis"`
	CreatedAt     time.Time `json:"createdAt"`
	LastUsedAt    time.Time `json:"lastUsedAt"`
}

func sessionInfoOf(ms *ManagedSession) sessionInfo {
	sess := ms.Session
	ds := sess.Dataset()
	return sessionInfo{
		ID:            ms.ID,
		Dataset:       ds.Name,
		Rows:          ds.N(),
		Dim:           ds.Dim,
		Measure:       ds.Measure.String(),
		Probes:        sess.ProbeCount(),
		CachedPairs:   sess.CachedPairs(),
		Thresholds:    sess.Thresholds(),
		SketchMillis:  float64(sess.SketchTime()) / float64(time.Millisecond),
		ProcessMillis: float64(sess.ProcessTime()) / float64(time.Millisecond),
		CreatedAt:     ms.Created,
		LastUsedAt:    ms.LastUsed(),
	}
}

// appendRowsRequest carries a batch of rows for a live session in exactly
// one of the two upload shapes. Dense rows may be shorter than the session
// dimension (trailing zeros); sparse rows follow the create-path contract
// (strictly increasing indices in [0, dim), omitted values mean all-ones).
type appendRowsRequest struct {
	Dense  [][]float64 `json:"dense,omitempty"`
	Sparse []sparseRow `json:"sparse,omitempty"`
}

type appendRowsResponse struct {
	SessionID    string  `json:"sessionId"`
	Appended     int     `json:"appended"`
	Rows         int     `json:"rows"` // total rows after the append
	AppendEpoch  int64   `json:"appendEpoch"`
	SketchMillis float64 `json:"sketchMillis"` // this batch's sketching cost
}

// probeRequest triggers one probe.
type probeRequest struct {
	Threshold    float64 `json:"threshold"`
	Workers      int     `json:"workers,omitempty"`
	IncludePairs bool    `json:"includePairs,omitempty"`
	MaxPairs     int     `json:"maxPairs,omitempty"` // cap on returned pairs; 0 = all
}

type pairJSON struct {
	I   int32   `json:"i"`
	J   int32   `json:"j"`
	Est float64 `json:"est"`
}

type probeResponse struct {
	SessionID      string     `json:"sessionId"`
	Threshold      float64    `json:"threshold"`
	PairCount      int        `json:"pairCount"`
	Candidates     int        `json:"candidates"`
	Pruned         int        `json:"pruned"`
	CacheHits      int        `json:"cacheHits"`
	HashesCompared int64      `json:"hashesCompared"`
	RowsWalked     int        `json:"rowsWalked"`
	ProcessMillis  float64    `json:"processMillis"`
	Coalesced      bool       `json:"coalesced"`
	Pairs          []pairJSON `json:"pairs,omitempty"`
}

type curvePointJSON struct {
	Threshold float64 `json:"threshold"`
	Estimate  float64 `json:"estimate"`
	ErrBar    float64 `json:"errBar"`
}

type curveResponse struct {
	SessionID string           `json:"sessionId"`
	Points    []curvePointJSON `json:"points"`
	Knee      float64          `json:"knee"`
}

type graphResponse struct {
	SessionID       string  `json:"sessionId"`
	Threshold       float64 `json:"threshold"`
	Vertices        int     `json:"vertices"`
	Edges           int     `json:"edges"`
	MeanDegree      float64 `json:"meanDegree"`
	MaxDegree       int     `json:"maxDegree"`
	Isolated        int     `json:"isolated"`
	Components      int     `json:"components"`
	DegreeHistogram []int   `json:"degreeHistogram"`
	DensityProfile  []int   `json:"densityProfile"`
}

type histogramJSON struct {
	Lo     float64 `json:"lo"`
	Hi     float64 `json:"hi"`
	Counts []int   `json:"counts"`
}

type cuesResponse struct {
	SessionID         string        `json:"sessionId"`
	Threshold         float64       `json:"threshold"`
	Triangles         int64         `json:"triangles"`
	TriangleHistogram histogramJSON `json:"triangleHistogram"`
	DensityProfile    []int         `json:"densityProfile"`
	CurveAt           float64       `json:"curveEstimate"`
}

// sweepRequest runs ProbeIncremental: a probe at threshold with extrapolated
// estimates reported at the target thresholds every snapshot interval.
type sweepRequest struct {
	Threshold float64   `json:"threshold"`
	Targets   []float64 `json:"targets"`
	Snapshots int       `json:"snapshots,omitempty"`
}

type snapshotJSON struct {
	PercentProcessed float64            `json:"percentProcessed"`
	Estimates        map[string]float64 `json:"estimates"`
}

type sweepResponse struct {
	SessionID string         `json:"sessionId"`
	Threshold float64        `json:"threshold"`
	Snapshots []snapshotJSON `json:"snapshots"`
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
	var req createSessionRequest
	if err := decodeJSON(r, &req); err != nil {
		return 0, nil, err
	}
	// Validate before loading: a rejected request should not pay for (or
	// generate) its dataset first.
	params := req.Params.apply(bayeslsh.DefaultParams())
	if err := params.Validate(); err != nil {
		return 0, nil, badRequest("params: %v", err)
	}
	if s.cfg.Workers > 0 && (req.Params == nil || req.Params.Workers == nil) {
		params.Workers = s.cfg.Workers
	}
	ds, spec, err := s.resolveDataset(&req)
	if err != nil {
		return 0, nil, badRequest("%v", err)
	}
	ms, err := s.mgr.Create(spec, ds, params, req.Seed)
	if err != nil { // ErrCapacity: the only way an admission fails
		return 0, nil, apiErr(http.StatusServiceUnavailable, "capacity", "%v", err)
	}
	return http.StatusCreated, sessionInfoOf(ms), nil
}

// resolveDataset turns a create request into a dataset: exactly one of the
// named spec, the dense upload, or the sparse upload must be present.
func (s *Server) resolveDataset(req *createSessionRequest) (*vec.Dataset, dataset.Spec, error) {
	set := 0
	for _, present := range []bool{req.Dataset != nil, req.Dense != nil, req.Sparse != nil} {
		if present {
			set++
		}
	}
	if set != 1 {
		return nil, dataset.Spec{}, fmt.Errorf("exactly one of dataset, dense, or sparse must be set (got %d)", set)
	}
	if req.Dataset != nil {
		if req.Dataset.Seed == 0 {
			req.Dataset.Seed = req.Seed
		}
		ds, err := dataset.Load(*req.Dataset)
		if err != nil {
			return nil, dataset.Spec{}, err
		}
		return ds, *req.Dataset, nil
	}
	measure := vec.CosineSim
	switch req.Measure {
	case "", "cosine":
	case "jaccard":
		measure = vec.JaccardSim
	default:
		return nil, dataset.Spec{}, fmt.Errorf("unknown measure %q (want cosine or jaccard)", req.Measure)
	}
	name := req.Name
	if name == "" {
		name = "uploaded"
	}
	// The name is stored verbatim in session snapshots (length-capped
	// there); bound it here so every created session stays snapshottable.
	if len(name) > 256 {
		return nil, dataset.Spec{}, fmt.Errorf("name must be at most 256 bytes, got %d", len(name))
	}
	if req.Dense != nil {
		if len(req.Dense) < 2 {
			return nil, dataset.Spec{}, fmt.Errorf("dense upload needs at least 2 rows, got %d", len(req.Dense))
		}
		ds := vec.FromDenseMatrix(name, req.Dense, measure)
		ds.NormalizeRows()
		return ds, dataset.Spec{}, nil
	}
	up := req.Sparse
	if len(up.Rows) < 2 || up.Dim < 1 {
		return nil, dataset.Spec{}, fmt.Errorf("sparse upload needs dim >= 1 and at least 2 rows")
	}
	ds := &vec.Dataset{Name: name, Dim: up.Dim, Measure: measure}
	for ri, row := range up.Rows {
		v, err := row.vec(ri, up.Dim)
		if err != nil {
			return nil, dataset.Spec{}, err
		}
		ds.Rows = append(ds.Rows, v)
	}
	ds.NormalizeRows()
	return ds, dataset.Spec{}, nil
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
// the grown session. Appended rows get the same per-row normalization as
// the create path, so a grown session is bitwise-equivalent to one created
// from the full data up front.
func (s *Server) handleAppendRows(r *http.Request) (int, any, error) {
	var req appendRowsRequest
	if err := decodeJSON(r, &req); err != nil {
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
	dim := ms.Session.Dataset().Dim
	rows := make([]vec.Sparse, 0, count)
	for ri, drow := range req.Dense {
		if len(drow) > dim {
			return 0, nil, badRequest("dense row %d has %d entries, session dimension is %d", ri, len(drow), dim)
		}
		rows = append(rows, vec.FromDense(drow))
	}
	for ri, srow := range req.Sparse {
		v, err := srow.vec(ri, dim)
		if err != nil {
			return 0, nil, badRequest("%v", err)
		}
		rows = append(rows, v)
	}
	// Same per-row normalization as the create path (vec.NormalizeRows is
	// row-local), so split ingests stay bitwise-identical to full uploads.
	for _, row := range rows {
		row.Normalize()
	}
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
		resp.Pairs = make([]pairJSON, len(pairs))
		for i, p := range pairs {
			resp.Pairs[i] = pairJSON{I: p.I, J: p.J, Est: p.Est}
		}
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
	resp := curveResponse{SessionID: ms.ID, Knee: core.FindKnee(pts)}
	resp.Points = make([]curvePointJSON, len(pts))
	for i, p := range pts {
		resp.Points[i] = curvePointJSON{Threshold: p.Threshold, Estimate: p.Estimate, ErrBar: p.ErrBar}
	}
	return http.StatusOK, resp, nil
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
	h := cs.TriangleHistogram(bins)
	return http.StatusOK, cuesResponse{
		SessionID:         ms.ID,
		Threshold:         t,
		Triangles:         cs.Triangles(),
		TriangleHistogram: histogramJSON{Lo: h.Lo, Hi: h.Hi, Counts: h.Counts},
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
// (requires a blob store, i.e. -state-dir) the snapshot is written to the
// store instead and a JSON summary is returned.
func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	ms, release, err := s.acquire(r)
	if err != nil {
		s.fail(w, err)
		return
	}
	defer release()
	if raw := r.URL.Query().Get("persist"); raw == "1" || raw == "true" {
		if s.mgr.store == nil {
			s.writeError(w, http.StatusBadRequest, "bad_request",
				"persist requires the daemon to run with -state-dir")
			return
		}
		n, err := s.mgr.Persist(ms)
		if errors.Is(err, ErrNotFound) {
			// Deleted while this request held it: nothing was written.
			s.fail(w, notFound(ms.ID))
			return
		}
		if err != nil {
			s.writeError(w, http.StatusInternalServerError, "internal", "snapshot failed: %v", err)
			return
		}
		s.writeJSON(w, http.StatusOK, map[string]any{
			"sessionId": ms.ID,
			"key":       stateKey(ms.ID),
			"bytes":     n,
		})
		return
	}
	// Stream the snapshot straight to the client instead of staging it in a
	// buffer: the old path double-held up to a full session in memory per
	// request (the session plus its serialized bytes), which is exactly the
	// footprint the streaming restore path of the opposite direction was
	// built to avoid. A small holdback keeps early failures clean: the
	// codec's fallible header work (spec marshalling, string caps) all
	// happens within the first few hundred bytes, and the encoder writes
	// its magic before anything fallible — so without the holdback, no
	// failure could ever be reported as an error envelope.
	hw := &holdbackWriter{w: w}
	if err := ms.Session.Snapshot(hw); err != nil {
		if !hw.committed {
			// Nothing on the wire yet: a clean error envelope is possible.
			s.writeError(w, http.StatusInternalServerError, "internal", "snapshot failed: %v", err)
			return
		}
		// Mid-stream failure: bytes are already on the wire. Abort the
		// connection so the client sees a truncated (CRC-failing) stream,
		// never a clean EOF on a silently short snapshot.
		panic(http.ErrAbortHandler)
	}
	if err := hw.flush(); err != nil {
		panic(http.ErrAbortHandler)
	}
	s.mgr.snapBytesOut.Add(hw.written)
}

// snapshotHoldback is how much of a streamed snapshot is withheld before
// the response is committed. It needs to cover the codec's fallible header
// section (magic, spec blob, probe metadata); everything after that can
// only fail on writer errors.
const snapshotHoldback = 4096

// holdbackWriter buffers the first snapshotHoldback bytes and passes
// everything after them straight through. Headers (and the implicit 200)
// are only committed once the buffer overflows or flush is called, so a
// failure inside the codec's header work can still become a JSON 500.
type holdbackWriter struct {
	w         http.ResponseWriter
	head      []byte
	committed bool
	written   int64 // total snapshot bytes accepted, committed or held back
}

func (hw *holdbackWriter) commit() error {
	hw.w.Header().Set("Content-Type", "application/octet-stream")
	hw.committed = true
	_, err := hw.w.Write(hw.head)
	hw.head = nil
	return err
}

func (hw *holdbackWriter) Write(p []byte) (int, error) {
	hw.written += int64(len(p))
	if !hw.committed {
		if len(hw.head)+len(p) <= snapshotHoldback {
			hw.head = append(hw.head, p...)
			return len(p), nil
		}
		if err := hw.commit(); err != nil {
			return 0, err
		}
	}
	return hw.w.Write(p)
}

// flush commits a snapshot that fit entirely inside the holdback.
func (hw *holdbackWriter) flush() error {
	if hw.committed {
		return nil
	}
	return hw.commit()
}

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
// a fresh ID. The dataset is rehydrated from the snapshot itself (embedded
// spec or embedded data); a snapshot that fails validation is refused with
// the typed reason, never admitted as a silently-wrong cache. The body is
// decoded as a stream — RestoreSession never needs the whole upload in
// memory, and snapshots run to the (default 1 GiB) restore body cap.
func (s *Server) handleRestore(r *http.Request) (int, any, error) {
	body := &maxBytesTracker{r: r.Body}
	sess, err := core.RestoreSession(body, nil)
	s.mgr.snapBytesIn.Add(body.n)
	if err != nil {
		if body.tooBig != nil {
			return 0, nil, apiErr(http.StatusRequestEntityTooLarge, "too_large",
				"snapshot exceeds the %d-byte limit", body.tooBig.Limit)
		}
		return 0, nil, apiErr(http.StatusBadRequest, "bad_snapshot", "%v", err)
	}
	ms := &ManagedSession{Spec: sess.Spec, Session: sess, Created: time.Now()}
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
