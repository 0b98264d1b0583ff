package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"time"

	"plasmahd/internal/bayeslsh"
	"plasmahd/internal/core"
	"plasmahd/internal/dataset"
	"plasmahd/internal/stats"
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
		{"GET", "/healthz", "liveness check", s.handleHealthz},
		{"GET", "/metrics", "Prometheus text exposition of the metrics registry", s.handleMetrics},
		{"GET", "/v1/stats", "manager and process statistics", s.handleStats},
		{"GET", "/v1/datasets", "built-in dataset generators by kind", s.handleDatasets},
		{"POST", "/v1/sessions", "create a session from a named generator or uploaded data", s.handleCreateSession},
		{"GET", "/v1/sessions", "list resident sessions", s.handleListSessions},
		{"GET", "/v1/sessions/{id}", "one session's summary", s.handleGetSession},
		{"DELETE", "/v1/sessions/{id}", "delete a session", s.handleDeleteSession},
		{"POST", "/v1/sessions/{id}/rows", "append rows to the session's dataset, sketched into the live cache", s.handleAppendRows},
		{"POST", "/v1/sessions/{id}/probe", "run (or join) a probe at a threshold", s.handleProbe},
		{"POST", "/v1/sessions/{id}/probes", "run a batch of probes at several thresholds in one round trip", s.handleBatchProbe},
		{"POST", "/v1/sessions/{id}/snapshot", "serialize the session's knowledge cache to a binary snapshot", s.handleSnapshot},
		{"POST", "/v1/sessions/restore", "recreate a session from an uploaded binary snapshot", s.handleRestore},
		{"GET", "/v1/sessions/{id}/curve", "cumulative APSS curve over a threshold grid, with knee", s.handleCurve},
		{"GET", "/v1/sessions/{id}/graph", "threshold graph summary with degree/density profile", s.handleGraph},
		{"GET", "/v1/sessions/{id}/cues", "visual cues: triangle histogram and density profile", s.handleCues},
		{"POST", "/v1/sessions/{id}/sweep", "incremental probe with extrapolated snapshots", s.handleSweep},
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

// decodeJSON strictly decodes a request body into v and writes the error
// envelope itself on failure: 413 when the body blew past the configured
// cap (the middleware's MaxBytesReader), 400 for malformed JSON, unknown
// fields, or trailing garbage after the JSON value.
func (s *Server) decodeJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			s.writeError(w, http.StatusRequestEntityTooLarge, "too_large",
				"request body exceeds the %d-byte limit", tooBig.Limit)
		} else {
			s.writeError(w, http.StatusBadRequest, "bad_request", "invalid JSON body: %v", err)
		}
		return false
	}
	// One JSON value is the whole body; trailing garbage is an error, not
	// silently ignored input.
	var trailing json.RawMessage
	if err := dec.Decode(&trailing); err != io.EOF {
		s.writeError(w, http.StatusBadRequest, "bad_request", "trailing data after JSON body")
		return false
	}
	return true
}

// threshold parses the t query parameter into [-1, 1].
func (s *Server) threshold(w http.ResponseWriter, r *http.Request) (float64, bool) {
	raw := r.URL.Query().Get("t")
	if raw == "" {
		s.writeError(w, http.StatusBadRequest, "bad_request", "missing required query parameter t")
		return 0, false
	}
	t, err := strconv.ParseFloat(raw, 64)
	if err != nil || math.IsNaN(t) || t < -1 || t > 1 {
		s.writeError(w, http.StatusBadRequest, "bad_request", "t must be a number in [-1, 1], got %q", raw)
		return 0, false
	}
	return t, true
}

// queryInt parses an optional integer query parameter, using def when the
// parameter is absent. A present-but-unparseable (or overflowing) value is
// a 400, written here — never a silent fallback to the default, which would
// make `?steps=abc` quietly run with steps=14 while a malformed `t` gets a
// 400.
func (s *Server) queryInt(w http.ResponseWriter, r *http.Request, key string, def int) (int, bool) {
	raw := r.URL.Query().Get(key)
	if raw == "" {
		return def, true
	}
	v, err := strconv.Atoi(raw)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, "bad_request", "%s must be an integer, got %q", key, raw)
		return 0, false
	}
	return v, true
}

// queryFloat is queryInt for finite floats.
func (s *Server) queryFloat(w http.ResponseWriter, r *http.Request, key string, def float64) (float64, bool) {
	raw := r.URL.Query().Get(key)
	if raw == "" {
		return def, true
	}
	v, err := strconv.ParseFloat(raw, 64)
	if err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
		s.writeError(w, http.StatusBadRequest, "bad_request", "%s must be a finite number, got %q", key, raw)
		return 0, false
	}
	return v, true
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

type statsResponse struct {
	StatsSnapshot
	UptimeSeconds float64 `json:"uptimeSeconds"`
	Goroutines    int     `json:"goroutines"`
}

// ---- handlers ----

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
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

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, statsResponse{
		StatsSnapshot: s.mgr.Snapshot(),
		UptimeSeconds: time.Since(s.start).Seconds(),
		Goroutines:    runtime.NumGoroutine(),
	})
}

func (s *Server) handleDatasets(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, map[string]any{"sources": dataset.Sources()})
}

func (s *Server) handleCreateSession(w http.ResponseWriter, r *http.Request) {
	var req createSessionRequest
	if !s.decodeJSON(w, r, &req) {
		return
	}
	ds, spec, err := s.resolveDataset(&req)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, "bad_request", "%v", err)
		return
	}
	params := req.Params.apply(bayeslsh.DefaultParams())
	if s.cfg.Workers > 0 && (req.Params == nil || req.Params.Workers == nil) {
		params.Workers = s.cfg.Workers
	}
	ms, err := s.mgr.Create(spec, ds, params, req.Seed)
	if err != nil { // ErrCapacity: the only way an admission fails
		s.writeError(w, http.StatusServiceUnavailable, "capacity", "%v", err)
		return
	}
	s.writeJSON(w, http.StatusCreated, sessionInfoOf(ms))
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
		vals := row.Values
		if vals == nil {
			vals = make([]float64, len(row.Indices))
			for i := range vals {
				vals[i] = 1
			}
		}
		if len(vals) != len(row.Indices) {
			return nil, dataset.Spec{}, fmt.Errorf("sparse row %d: %d indices but %d values", ri, len(row.Indices), len(vals))
		}
		for i, ix := range row.Indices {
			if ix < 0 || int(ix) >= up.Dim {
				return nil, dataset.Spec{}, fmt.Errorf("sparse row %d: index %d out of range [0, %d)", ri, ix, up.Dim)
			}
			if i > 0 && row.Indices[i-1] >= ix {
				return nil, dataset.Spec{}, fmt.Errorf("sparse row %d: indices must be strictly increasing", ri)
			}
		}
		ds.Rows = append(ds.Rows, vec.Sparse{Indices: row.Indices, Values: vals})
	}
	ds.NormalizeRows()
	return ds, dataset.Spec{}, nil
}

func (s *Server) handleListSessions(w http.ResponseWriter, r *http.Request) {
	list := s.mgr.List()
	infos := make([]sessionInfo, len(list))
	for i, ms := range list {
		infos[i] = sessionInfoOf(ms)
	}
	s.writeJSON(w, http.StatusOK, map[string]any{"sessions": infos})
}

func (s *Server) handleGetSession(w http.ResponseWriter, r *http.Request) {
	ms, release, ok := s.acquire(w, r)
	if !ok {
		return
	}
	defer release()
	s.writeJSON(w, http.StatusOK, sessionInfoOf(ms))
}

func (s *Server) handleDeleteSession(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	// Resident or spilled: the blob goes too, so it cannot resurrect.
	if err := s.mgr.Delete(id); err != nil {
		s.writeError(w, http.StatusNotFound, "not_found", "no session %q", id)
		return
	}
	s.writeJSON(w, http.StatusOK, map[string]string{"deleted": id})
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
func (s *Server) handleAppendRows(w http.ResponseWriter, r *http.Request) {
	var req appendRowsRequest
	if !s.decodeJSON(w, r, &req) {
		return
	}
	if (req.Dense != nil) == (req.Sparse != nil) {
		s.writeError(w, http.StatusBadRequest, "bad_request", "exactly one of dense or sparse must be set")
		return
	}
	count := len(req.Dense) + len(req.Sparse)
	if count == 0 {
		s.writeError(w, http.StatusBadRequest, "bad_request", "no rows to append")
		return
	}
	if count > maxAppendRows {
		s.writeError(w, http.StatusBadRequest, "bad_request",
			"at most %d rows per append call, got %d", maxAppendRows, count)
		return
	}
	ms, release, ok := s.acquire(w, r)
	if !ok {
		return
	}
	defer release()
	dim := ms.Session.Dataset().Dim
	rows := make([]vec.Sparse, 0, count)
	for ri, drow := range req.Dense {
		if len(drow) > dim {
			s.writeError(w, http.StatusBadRequest, "bad_request",
				"dense row %d has %d entries, session dimension is %d", ri, len(drow), dim)
			return
		}
		rows = append(rows, vec.FromDense(drow))
	}
	for ri, srow := range req.Sparse {
		vals := srow.Values
		if vals == nil {
			vals = make([]float64, len(srow.Indices))
			for i := range vals {
				vals[i] = 1
			}
		}
		if len(vals) != len(srow.Indices) {
			s.writeError(w, http.StatusBadRequest, "bad_request",
				"sparse row %d: %d indices but %d values", ri, len(srow.Indices), len(vals))
			return
		}
		for i, ix := range srow.Indices {
			if ix < 0 || int(ix) >= dim {
				s.writeError(w, http.StatusBadRequest, "bad_request",
					"sparse row %d: index %d out of range [0, %d)", ri, ix, dim)
				return
			}
			if i > 0 && srow.Indices[i-1] >= ix {
				s.writeError(w, http.StatusBadRequest, "bad_request",
					"sparse row %d: indices must be strictly increasing", ri)
				return
			}
		}
		rows = append(rows, vec.Sparse{Indices: srow.Indices, Values: vals})
	}
	// Same per-row normalization as the create path (vec.NormalizeRows is
	// row-local), so split ingests stay bitwise-identical to full uploads.
	for _, row := range rows {
		row.Normalize()
	}
	d, err := ms.Session.AppendRows(rows)
	if err != nil {
		s.writeError(w, http.StatusInternalServerError, "internal", "append failed: %v", err)
		return
	}
	s.rowsAppended.Add(int64(count))
	s.writeJSON(w, http.StatusOK, appendRowsResponse{
		SessionID:    ms.ID,
		Appended:     count,
		Rows:         ms.Session.Dataset().N(),
		AppendEpoch:  ms.Session.AppendEpoch(),
		SketchMillis: float64(d) / float64(time.Millisecond),
	})
}

func (s *Server) handleProbe(w http.ResponseWriter, r *http.Request) {
	var req probeRequest
	if !s.decodeJSON(w, r, &req) {
		return
	}
	if req.Threshold < -1 || req.Threshold > 1 {
		s.writeError(w, http.StatusBadRequest, "bad_request", "threshold must be in [-1, 1], got %v", req.Threshold)
		return
	}
	ms, release, ok := s.acquire(w, r)
	if !ok {
		return
	}
	// The probe keeps the session busy (eviction-exempt) until it finishes,
	// even if this request times out first and the run continues detached.
	type outcome struct {
		res       *bayeslsh.Result
		coalesced bool
		err       error
	}
	ch := make(chan outcome, 1)
	go func() {
		defer release()
		// This goroutine outlives the request handler on timeout, so the
		// recovery middleware cannot cover it: a panic here must become an
		// error, not a process crash for every tenant.
		defer func() {
			if rec := recover(); rec != nil {
				ch <- outcome{err: fmt.Errorf("probe panicked: %v", rec)}
			}
		}()
		res, coalesced, err := ms.Probe(req.Threshold, req.Workers, &s.mgr.stats)
		ch <- outcome{res, coalesced, err}
	}()
	select {
	case <-r.Context().Done():
		s.writeError(w, http.StatusServiceUnavailable, "timeout",
			"probe at t=%v still running; its evidence will land in the session cache", req.Threshold)
		return
	case out := <-ch:
		if out.err != nil {
			s.writeError(w, http.StatusInternalServerError, "internal", "probe failed: %v", out.err)
			return
		}
		resp := probeResponse{
			SessionID:      ms.ID,
			Threshold:      req.Threshold,
			PairCount:      len(out.res.Pairs),
			Candidates:     out.res.Candidates,
			Pruned:         out.res.Pruned,
			CacheHits:      out.res.CacheHits,
			HashesCompared: out.res.HashesCompared,
			ProcessMillis:  float64(out.res.ProcessTime) / float64(time.Millisecond),
			Coalesced:      out.coalesced,
		}
		if req.IncludePairs {
			pairs := out.res.Pairs
			if req.MaxPairs > 0 && len(pairs) > req.MaxPairs {
				pairs = pairs[:req.MaxPairs]
			}
			resp.Pairs = make([]pairJSON, len(pairs))
			for i, p := range pairs {
				resp.Pairs[i] = pairJSON{I: p.I, J: p.J, Est: p.Est}
			}
		}
		s.writeJSON(w, http.StatusOK, resp)
	}
}

func (s *Server) handleCurve(w http.ResponseWriter, r *http.Request) {
	// Parse before acquire: an invalid request must not busy-mark the
	// session (or revive a spilled one) just to be told it is malformed.
	lo, ok := s.queryFloat(w, r, "lo", 0.3)
	if !ok {
		return
	}
	hi, ok := s.queryFloat(w, r, "hi", 0.95)
	if !ok {
		return
	}
	steps, ok := s.queryInt(w, r, "steps", 14)
	if !ok {
		return
	}
	if steps < 1 || steps > 10000 || hi < lo {
		s.writeError(w, http.StatusBadRequest, "bad_request", "want lo <= hi and 1 <= steps <= 10000")
		return
	}
	ms, release, ok := s.acquire(w, r)
	if !ok {
		return
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
	s.writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleGraph(w http.ResponseWriter, r *http.Request) {
	t, ok := s.threshold(w, r)
	if !ok {
		return
	}
	top, ok := s.queryInt(w, r, "top", 50)
	if !ok {
		return
	}
	ms, release, ok := s.acquire(w, r)
	if !ok {
		return
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
	s.writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleCues(w http.ResponseWriter, r *http.Request) {
	t, ok := s.threshold(w, r)
	if !ok {
		return
	}
	bins, ok := s.queryInt(w, r, "bins", 8)
	if !ok {
		return
	}
	top, ok := s.queryInt(w, r, "top", 50)
	if !ok {
		return
	}
	if bins < 1 || bins > 1000 {
		s.writeError(w, http.StatusBadRequest, "bad_request", "bins must be in [1, 1000]")
		return
	}
	ms, release, ok := s.acquire(w, r)
	if !ok {
		return
	}
	defer release()
	// The memoized cue layer materializes the threshold graph and its
	// triangle incidences at most once per cache state: the incidences give
	// both the count (each triangle is incident on 3 vertices) and the
	// Fig 2.5b histogram, the cores give the Fig 2.5c profile. Only CurveAt
	// scans the pair cache again, for the estimate.
	cs := ms.Session.CueSet(t)
	per := cs.TrianglesPerVertex()
	xs := make([]float64, len(per))
	var hi float64
	for i, c := range per {
		xs[i] = float64(c)
		if xs[i] > hi {
			hi = xs[i]
		}
	}
	// A graph with no triangles (hi == 0, e.g. no pairs cleared the
	// threshold) has a single meaningful bucket [0, 1). Without the clamp
	// the response would report the requested bin count with every vertex
	// in bucket 0 and bins-1 phantom empty buckets after it — a histogram
	// shape that lies about the data's spread.
	if hi == 0 {
		bins = 1
	}
	h := stats.NewHistogram(xs, bins, 0, hi+1)
	resp := cuesResponse{
		SessionID:         ms.ID,
		Threshold:         t,
		Triangles:         cs.Triangles(),
		TriangleHistogram: histogramJSON{Lo: h.Lo, Hi: h.Hi, Counts: h.Counts},
		DensityProfile:    topK(cs.DensityProfile(), top),
		CurveAt:           ms.Session.CurveAt(t).Estimate,
	}
	s.writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	var req sweepRequest
	if !s.decodeJSON(w, r, &req) {
		return
	}
	if req.Threshold < -1 || req.Threshold > 1 {
		s.writeError(w, http.StatusBadRequest, "bad_request", "threshold must be in [-1, 1], got %v", req.Threshold)
		return
	}
	// Each snapshot scans the pair cache once per target, so both knobs are
	// capped like curve's steps and cues' bins.
	if len(req.Targets) > 256 {
		s.writeError(w, http.StatusBadRequest, "bad_request", "at most 256 targets, got %d", len(req.Targets))
		return
	}
	// Every target is a similarity: values outside [-1, 1] can never match
	// any pair, so an out-of-range target is a client error, mirroring the
	// threshold check above.
	for _, tgt := range req.Targets {
		if tgt < -1 || tgt > 1 {
			s.writeError(w, http.StatusBadRequest, "bad_request", "targets must be in [-1, 1], got %v", tgt)
			return
		}
	}
	if req.Snapshots > 1000 {
		s.writeError(w, http.StatusBadRequest, "bad_request", "at most 1000 snapshots, got %d", req.Snapshots)
		return
	}
	if len(req.Targets) == 0 {
		req.Targets = []float64{req.Threshold}
	}
	ms, release, ok := s.acquire(w, r)
	if !ok {
		return
	}
	type outcome struct {
		snaps []core.IncrementalSnapshot
		err   error
	}
	ch := make(chan outcome, 1)
	//lint:goleak-ok deliberately detached: bounded one-shot send to a buffered channel; the sweep must finish (and release the session) even after the request times out
	go func() {
		defer release()
		// Same detachment as handleProbe: recover here, where the recovery
		// middleware cannot reach.
		defer func() {
			if rec := recover(); rec != nil {
				ch <- outcome{err: fmt.Errorf("sweep panicked: %v", rec)}
			}
		}()
		snaps, err := ms.Session.ProbeIncremental(req.Threshold, req.Targets, req.Snapshots)
		s.mgr.stats.Probes.Add(1)
		ch <- outcome{snaps, err}
	}()
	select {
	case <-r.Context().Done():
		s.writeError(w, http.StatusServiceUnavailable, "timeout",
			"sweep at t=%v still running; its evidence will land in the session cache", req.Threshold)
		return
	case out := <-ch:
		if out.err != nil {
			s.writeError(w, http.StatusInternalServerError, "internal", "sweep failed: %v", out.err)
			return
		}
		resp := sweepResponse{SessionID: ms.ID, Threshold: req.Threshold}
		for _, snap := range out.snaps {
			sj := snapshotJSON{PercentProcessed: snap.PercentProcessed, Estimates: make(map[string]float64, len(snap.Estimates))}
			for t2, est := range snap.Estimates {
				sj.Estimates[strconv.FormatFloat(t2, 'g', -1, 64)] = est
			}
			resp.Snapshots = append(resp.Snapshots, sj)
		}
		s.writeJSON(w, http.StatusOK, resp)
	}
}

// handleSnapshot serializes a session. By default the binary snapshot is
// streamed back to the client (application/octet-stream), ready to be fed
// to POST /v1/sessions/restore here or on another daemon. With ?persist=1
// (requires a blob store, i.e. -state-dir) the snapshot is written to the
// store instead and a JSON summary is returned.
func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	ms, release, ok := s.acquire(w, r)
	if !ok {
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
			s.writeError(w, http.StatusNotFound, "not_found", "no session %q", ms.ID)
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
func (s *Server) handleRestore(w http.ResponseWriter, r *http.Request) {
	body := &maxBytesTracker{r: r.Body}
	sess, err := core.RestoreSession(body, nil)
	s.mgr.snapBytesIn.Add(body.n)
	if err != nil {
		if body.tooBig != nil {
			s.writeError(w, http.StatusRequestEntityTooLarge, "too_large",
				"snapshot exceeds the %d-byte limit", body.tooBig.Limit)
			return
		}
		s.writeError(w, http.StatusBadRequest, "bad_snapshot", "%v", err)
		return
	}
	ms := &ManagedSession{Spec: sess.Spec, Session: sess, Created: time.Now()}
	if err := s.mgr.AdmitNew(ms); err != nil {
		s.writeError(w, http.StatusServiceUnavailable, "capacity", "%v", err)
		return
	}
	s.writeJSON(w, http.StatusCreated, sessionInfoOf(ms))
}

// topK truncates a profile to its first k entries (it is already sorted
// descending); k <= 0 keeps everything.
func topK(xs []int, k int) []int {
	if k > 0 && len(xs) > k {
		return xs[:k]
	}
	return xs
}
