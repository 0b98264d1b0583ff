package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"time"

	"plasmahd/bench/gen"
	"plasmahd/internal/bayeslsh"
	"plasmahd/internal/core"
	"plasmahd/internal/server"
	"plasmahd/internal/stats"
	"plasmahd/internal/vec"
)

// fillerBody creates the smallest legal session: it exists only to push a
// big session out of the LRU so the next touch of it is a revive.
const fillerBody = `{"name":"filler","measure":"jaccard","sparse":{"dim":4,"rows":[{"indices":[0,1]},{"indices":[1,2]}]}}`

// httpTarget drives a plasmad over HTTP: a live daemon (or cluster, when
// several base URLs are given — requests then enter round-robin, as behind
// a load balancer) or, with a handlerTransport client, an in-process
// handler with no network in between.
type httpTarget struct {
	client *http.Client
	bases  []string
	names  []string // cluster node name per base (nil for a single node)
	next   int      // round-robin cursor over bases
	ids    map[int]string
	snap   []byte

	requests int // completed HTTP requests (any status)
	proxied  int // responses served by a node other than the entry node
}

func newHTTPTarget(client *http.Client, bases ...string) *httpTarget {
	return &httpTarget{client: client, bases: bases, ids: make(map[int]string)}
}

// handlerTransport serves requests by calling an http.Handler directly —
// the in-process "server layer" of the traced pass.
type handlerTransport struct{ h http.Handler }

func (t handlerTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	rec := httptest.NewRecorder()
	t.h.ServeHTTP(rec, r)
	return rec.Result(), nil
}

// wire shapes: only the fields the benchmark reads.
type wireSession struct {
	ID          string `json:"id"`
	Rows        int    `json:"rows"`
	Probes      int    `json:"probes"`
	CachedPairs int    `json:"cachedPairs"`
}

type wireProbe struct {
	PairCount      int   `json:"pairCount"`
	Candidates     int   `json:"candidates"`
	Pruned         int   `json:"pruned"`
	CacheHits      int   `json:"cacheHits"`
	HashesCompared int64 `json:"hashesCompared"`
}

func (p wireProbe) counters() probeCounters {
	return probeCounters{Pairs: p.PairCount, Candidates: p.Candidates, Pruned: p.Pruned,
		CacheHits: p.CacheHits, Hashes: p.HashesCompared}
}

func fmtF(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// call issues one request and decodes a JSON answer into out (nil = drain).
// Any transport error, timeout or non-2xx status is an error: the caller
// counts it as a failed operation.
func (t *httpTarget) call(method, path string, body []byte, out any) (*http.Response, error) {
	base := t.bases[t.next%len(t.bases)]
	t.next++
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, base+path, rd)
	if err != nil {
		return nil, err
	}
	resp, err := t.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	t.requests++
	if resp.StatusCode/100 != 2 {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 300))
		return resp, fmt.Errorf("%s %s: HTTP %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(msg))
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return resp, fmt.Errorf("%s %s: decoding answer: %w", method, path, err)
		}
	}
	// Drain so the keep-alive connection is reused.
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return resp, fmt.Errorf("%s %s: reading answer: %w", method, path, err)
	}
	return resp, nil
}

func (t *httpTarget) sessionPath(slot int, suffix string) (string, error) {
	id, ok := t.ids[slot]
	if !ok {
		return "", fmt.Errorf("script bug: slot %d has no session", slot)
	}
	return "/v1/sessions/" + id + suffix, nil
}

func (t *httpTarget) do(o *op) (result, error) {
	var res result
	if o.node > 0 && len(t.bases) > 1 {
		t.next = o.node - 1
	}
	switch o.kind {
	case opCreate, opFiller:
		body := o.body
		if o.kind == opFiller {
			body = []byte(fillerBody)
		}
		var s wireSession
		if _, err := t.call("POST", "/v1/sessions", body, &s); err != nil {
			return res, err
		}
		t.ids[o.slot] = s.ID
		if o.kind == opCreate {
			res.rows = s.Rows
		}
		return res, nil
	case opStats:
		_, err := t.call("GET", "/v1/stats", nil, nil)
		return res, err
	case opMetrics:
		_, err := t.call("GET", "/metrics", nil, nil)
		return res, err
	case opRestore:
		var s wireSession
		if _, err := t.call("POST", "/v1/sessions/restore", t.snap, &s); err != nil {
			return res, err
		}
		t.ids[o.slot] = s.ID
		res.rows, res.cachedPairs, res.probeCount = s.Rows, s.CachedPairs, s.Probes
		return res, nil
	}

	// Session-scoped ops.
	var suffix, method string
	var out any
	var probe wireProbe
	var batch struct {
		Results []wireProbe `json:"results"`
		Failed  int         `json:"failed"`
	}
	var curve struct {
		Points []struct {
			Estimate float64 `json:"estimate"`
			ErrBar   float64 `json:"errBar"`
		} `json:"points"`
		Knee float64 `json:"knee"`
	}
	var cues struct {
		Triangles int64   `json:"triangles"`
		CurveAt   float64 `json:"curveEstimate"`
	}
	var graph struct {
		Edges      int `json:"edges"`
		Components int `json:"components"`
	}
	var info wireSession
	var appended struct {
		Rows int `json:"rows"`
	}
	switch o.kind {
	case opProbe:
		method, suffix, out = "POST", "/probe", &probe
	case opBatch:
		method, suffix, out = "POST", "/probes", &batch
	case opCurve:
		method, out = "GET", &curve
		suffix = "/curve?lo=" + fmtF(o.lo) + "&hi=" + fmtF(o.hi) + "&steps=" + strconv.Itoa(o.steps)
	case opCues:
		method, suffix, out = "GET", "/cues?t="+fmtF(o.t), &cues
	case opGraph:
		method, suffix, out = "GET", "/graph?t="+fmtF(o.t), &graph
	case opInfo:
		method, suffix, out = "GET", "", &info
	case opAppend:
		method, suffix, out = "POST", "/rows", &appended
	case opSnapshot:
		method, suffix = "POST", "/snapshot"
	case opDelete:
		method, suffix = "DELETE", ""
	default:
		return res, fmt.Errorf("script bug: op kind %v", o.kind)
	}
	path, err := t.sessionPath(o.slot, suffix)
	if err != nil {
		return res, err
	}
	if o.kind == opSnapshot {
		return t.snapshot(path)
	}
	entry := t.next % len(t.bases)
	resp, err := t.call(method, path, o.body, out)
	if err != nil {
		return res, err
	}
	if t.names != nil && resp.Header.Get(server.NodeHeader) != t.names[entry] {
		t.proxied++
	}
	switch o.kind {
	case opProbe:
		res.probes = []probeCounters{probe.counters()}
	case opBatch:
		if batch.Failed != 0 || len(batch.Results) != len(o.ts) {
			return res, fmt.Errorf("batch probe: %d of %d thresholds failed", batch.Failed, len(o.ts))
		}
		for _, p := range batch.Results {
			res.probes = append(res.probes, p.counters())
		}
	case opCurve:
		for _, p := range curve.Points {
			res.curve = append(res.curve, p.Estimate, p.ErrBar)
		}
		res.curve = append(res.curve, curve.Knee)
	case opCues:
		res.triangles, res.curveAt = cues.Triangles, cues.CurveAt
	case opGraph:
		res.edges, res.components = graph.Edges, graph.Components
	case opInfo:
		res.rows, res.cachedPairs, res.probeCount = info.Rows, info.CachedPairs, info.Probes
	case opAppend:
		res.rows = appended.Rows
	case opDelete:
		delete(t.ids, o.slot)
	}
	return res, nil
}

// snapshot downloads a session snapshot to its last byte and keeps it for
// the next restore.
func (t *httpTarget) snapshot(path string) (result, error) {
	base := t.bases[t.next%len(t.bases)]
	t.next++
	resp, err := t.client.Post(base+path, "application/json", nil)
	if err != nil {
		return result{}, err
	}
	defer resp.Body.Close()
	t.requests++
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 300))
		return result{}, fmt.Errorf("POST %s: HTTP %d: %s", path, resp.StatusCode, bytes.TrimSpace(msg))
	}
	buf := bytes.NewBuffer(t.snap[:0])
	if _, err := io.Copy(buf, resp.Body); err != nil {
		return result{}, fmt.Errorf("POST %s: reading snapshot: %w", path, err)
	}
	t.snap = buf.Bytes()
	return result{bytes: len(t.snap)}, nil
}

// coreTarget is the shadow one layer below the HTTP handler: the same ops
// applied to core.Session values fed the same rows in the same order. The
// engine is deterministic byte for byte, so its answers must equal the
// daemon's, and its time is the part of a request spent at or below core.
type coreTarget struct {
	sess map[int]*core.Session
	snap []byte

	// Cue-set LRU counters of the sessions deleted so far.
	cueHits, cueMisses int64
	// curvePairPoints sums cached pairs x grid points over every curve
	// evaluated: the work unit of core.curve_ns_per_pair_point.
	curvePairPoints float64
}

func newCoreTarget() *coreTarget { return &coreTarget{sess: make(map[int]*core.Session)} }

// normalized returns rows [lo, hi) as the handler hands them to the engine.
func normalized(d *gen.Data, lo, hi int) []vec.Sparse {
	rows := gen.CopyRows(d.Rows[lo:hi])
	for _, r := range rows {
		r.Normalize()
	}
	return rows
}

func countersOf(r *bayeslsh.Result) probeCounters {
	return probeCounters{Pairs: len(r.Pairs), Candidates: r.Candidates, Pruned: r.Pruned,
		CacheHits: r.CacheHits, Hashes: r.HashesCompared}
}

func (t *coreTarget) do(o *op) (result, error) {
	var res result
	switch o.kind {
	case opCreate:
		// plasmad's default engine parameters (handleCreateSession with no
		// "params" and -workers 0).
		s := core.NewSession(o.data.Dataset(0, o.to), bayeslsh.DefaultParams(), o.seed)
		t.sess[o.slot] = s
		res.rows = o.to
		return res, nil
	case opFiller, opStats, opMetrics:
		return res, nil // no work at or below core
	case opDelete:
		if s, ok := t.sess[o.slot]; ok {
			h, m := s.CueCacheStats()
			t.cueHits, t.cueMisses = t.cueHits+h, t.cueMisses+m
		}
		delete(t.sess, o.slot)
		return res, nil
	case opRestore:
		s, err := core.RestoreSession(bytes.NewReader(t.snap), nil)
		if err != nil {
			return res, err
		}
		t.sess[o.slot] = s
		res.rows, res.cachedPairs, res.probeCount = s.Dataset().N(), s.CachedPairs(), s.ProbeCount()
		return res, nil
	}
	s, ok := t.sess[o.slot]
	if !ok {
		return res, fmt.Errorf("script bug: slot %d has no shadow session", o.slot)
	}
	switch o.kind {
	case opProbe:
		r, err := s.ProbeWorkers(o.t, 0)
		if err != nil {
			return res, err
		}
		res.probes = []probeCounters{countersOf(r)}
	case opBatch:
		for _, th := range o.ts {
			r, err := s.ProbeWorkers(th, 0)
			if err != nil {
				return res, err
			}
			res.probes = append(res.probes, countersOf(r))
		}
	case opCurve:
		pts := s.CumulativeAPSS(core.ThresholdGrid(o.lo, o.hi, o.steps))
		for _, p := range pts {
			res.curve = append(res.curve, p.Estimate, p.ErrBar)
		}
		res.curve = append(res.curve, core.FindKnee(pts))
		t.curvePairPoints += float64(s.CachedPairs() * len(pts))
	case opCues:
		// The handler's work: triangle incidences, their histogram, the
		// density profile, and one more pair-store scan for the estimate.
		cs := s.CueSet(o.t)
		per := cs.TrianglesPerVertex()
		xs := make([]float64, len(per))
		var hi float64
		for i, c := range per {
			xs[i] = float64(c)
			hi = max(hi, xs[i])
		}
		_ = stats.NewHistogram(xs, 8, 0, hi+1)
		_ = cs.DensityProfile()
		res.triangles, res.curveAt = cs.Triangles(), s.CurveAt(o.t).Estimate
	case opGraph:
		cs := s.CueSet(o.t)
		_ = cs.DensityProfile()
		res.edges, res.components = cs.Graph().M(), cs.Components()
	case opInfo:
		_, _ = s.Thresholds(), s.ProcessTime()
		res.rows, res.cachedPairs, res.probeCount = s.Dataset().N(), s.CachedPairs(), s.ProbeCount()
	case opAppend:
		if _, err := s.AppendRows(normalized(o.data, o.from, o.to)); err != nil {
			return res, err
		}
		res.rows = s.Dataset().N()
	case opSnapshot:
		buf := bytes.NewBuffer(t.snap[:0])
		if err := s.Snapshot(buf); err != nil {
			return res, err
		}
		t.snap = buf.Bytes()
		res.bytes = len(t.snap)
	default:
		return res, fmt.Errorf("script bug: op kind %v", o.kind)
	}
	return res, nil
}

// cacheTarget is the shadow below core: the ops that reach bayeslsh
// (sketch, search, append, encode, decode) applied to a bare Cache. Ops
// that live entirely in core (curve, cues, graph) cost nothing here, which
// is what makes their core span all self time.
type cacheTarget struct {
	ds     map[int]*vec.Dataset
	cache  map[int]*bayeslsh.Cache
	snap   []byte
	snapDS *vec.Dataset

	// Per-layer counters: the first probe after the latest create (a cold
	// probe), the sum over every probe, and the engine's own sketch timer,
	// index rebuilds and cached pairs as of the latest probed cache.
	cold, total probeCounters
	appended    int // rows appended over the whole replay
	coldPending bool
	sketch      time.Duration
	rebuilds    int64
	cachedPairs int
}

func newCacheTarget() *cacheTarget {
	return &cacheTarget{ds: make(map[int]*vec.Dataset), cache: make(map[int]*bayeslsh.Cache)}
}

func (t *cacheTarget) do(o *op) (result, error) {
	var res result
	switch o.kind {
	case opCreate:
		ds := o.data.Dataset(0, o.to)
		c := bayeslsh.NewCache(ds, bayeslsh.DefaultParams(), o.seed)
		t.ds[o.slot], t.cache[o.slot], t.sketch, t.coldPending = ds, c, c.SketchTime, true
		return res, nil
	case opRestore:
		c, err := bayeslsh.DecodeSnapshot(bytes.NewReader(t.snap))
		if err != nil {
			return res, err
		}
		t.ds[o.slot], t.cache[o.slot] = t.snapDS, c
		return res, nil
	case opDelete:
		delete(t.ds, o.slot)
		delete(t.cache, o.slot)
		return res, nil
	case opProbe, opBatch, opAppend, opSnapshot:
	default:
		return res, nil // no work at or below bayeslsh
	}
	c, ok := t.cache[o.slot]
	if !ok {
		return res, fmt.Errorf("script bug: slot %d has no shadow cache", o.slot)
	}
	ds := t.ds[o.slot]
	switch o.kind {
	case opProbe, opBatch:
		ts := o.ts
		if o.kind == opProbe {
			ts = []float64{o.t}
		}
		for _, th := range ts {
			r, err := bayeslsh.SearchWorkers(ds, th, c, nil, 0)
			if err != nil {
				return res, err
			}
			pc := countersOf(r)
			if t.coldPending {
				t.cold, t.coldPending = pc, false
			}
			t.total.Pairs += pc.Pairs
			t.total.Candidates += pc.Candidates
			t.total.Pruned += pc.Pruned
			t.total.CacheHits += pc.CacheHits
			t.total.Hashes += pc.Hashes
			res.probes = append(res.probes, pc)
		}
		if o.slot != slotRestored && o.slot != slotTempCopy {
			t.rebuilds, t.cachedPairs = c.IndexRebuilds(), c.Pairs.Len()
		}
	case opAppend:
		rows := normalized(o.data, o.from, o.to)
		if _, err := c.AppendRows(rows); err != nil {
			return res, err
		}
		t.appended += len(rows)
		t.ds[o.slot] = &vec.Dataset{Name: ds.Name, Dim: ds.Dim, Measure: ds.Measure,
			Rows: append(ds.Rows[:len(ds.Rows):len(ds.Rows)], rows...)}
	case opSnapshot:
		buf := bytes.NewBuffer(t.snap[:0])
		if err := c.EncodeSnapshot(buf); err != nil {
			return res, err
		}
		t.snap, t.snapDS = buf.Bytes(), ds
	}
	return res, nil
}
