package main

import (
	"fmt"
	"math"

	"plasmahd/bench/gen"
)

// opKind is one request type of the plasmad API, as the benchmark scripts
// use it. The same op list is executed against every target (the live
// daemon, an in-process handler, a shadow core.Session, a shadow
// bayeslsh.Cache), which is what lets the traced pass subtract one layer's
// span from the next and lets the checks compare answers field by field.
type opKind int

const (
	opCreate   opKind = iota // POST /v1/sessions (sparse upload)
	opFiller                 // POST /v1/sessions with a 2-row dataset (LRU pressure only)
	opProbe                  // POST .../probe
	opBatch                  // POST .../probes
	opCurve                  // GET .../curve
	opCues                   // GET .../cues
	opGraph                  // GET .../graph
	opInfo                   // GET /v1/sessions/{id}
	opStats                  // GET /v1/stats
	opMetrics                // GET /metrics
	opAppend                 // POST .../rows
	opSnapshot               // POST .../snapshot (download)
	opRestore                // POST /v1/sessions/restore (upload of the last snapshot)
	opDelete                 // DELETE /v1/sessions/{id}
)

var opNames = [...]string{"create", "filler", "probe", "batch", "curve", "cues", "graph",
	"info", "stats", "metrics", "append", "snapshot", "restore", "delete"}

func (k opKind) String() string { return opNames[k] }

// Latency classes: every timed op is filed under exactly one. The
// end-to-end metrics are medians (or a percentile) over a class.
const (
	clsCreate   = "create"    // first_answer_s = create + first
	clsFirst    = "first"     // a session's first probe
	clsProbe    = "probe"     // probe_p50_ms
	clsCurve    = "curve"     // curve_ms
	clsCuesCold = "cues_cold" // cues_cold_ms
	clsRead     = "read"      // read_p50_ms, read_p95_ms
	clsAppend   = "append"    // ingest_rows_per_s
	clsSnapshot = "snapshot"  // snapshot_s
	clsRestore  = "restore"   // restore_s
	clsRevive   = "revive"    // revive_ms
	clsSpill    = "spill"     // per-layer only: a create that evicts and spills a big session
	clsUntimed  = ""          // housekeeping (deletes, LRU touches)
)

// op is one scripted request.
type op struct {
	kind  opKind
	slot  int    // session slot within the script's target state
	class string // latency class ("" = untimed)

	t      float64   // probe/cues/graph threshold
	ts     []float64 // batch thresholds
	lo, hi float64   // curve grid
	steps  int

	data     *gen.Data // create: rows [0, to); append: rows [from, to)
	from, to int
	seed     int64  // create: sketch seed
	body     []byte // pre-encoded JSON body (create, append, probe, batch)

	// node, when non-zero, makes the request enter the cluster through node
	// number node-1 instead of the next one in the round-robin.
	node int

	// sameAsPrev marks a probe of a restored copy issued right after the
	// same probe of its original: the two answers must be identical.
	sameAsPrev bool
}

// probeCounters are the deterministic fields of a probe response.
type probeCounters struct {
	Pairs, Candidates, Pruned, CacheHits int
	Hashes                               int64
}

// result is the deterministic part of an op's answer, in a form every
// target can produce, so two targets can be compared with ==/diff.
type result struct {
	probes      []probeCounters // probe: 1, batch: len(ts)
	curve       []float64       // estimate, errBar per grid point, then knee
	triangles   int64           // cues
	curveAt     float64         // cues
	edges       int             // graph
	components  int             // graph
	rows        int             // create, info, append, restore: rows after the op
	cachedPairs int             // info, restore
	probeCount  int             // info, restore
	bytes       int             // snapshot: encoded size
}

// diff describes the first disagreement between two results, or "".
func (r result) diff(o result) string {
	if len(r.probes) != len(o.probes) {
		return fmt.Sprintf("probe results: %d vs %d", len(r.probes), len(o.probes))
	}
	for i := range r.probes {
		if r.probes[i] != o.probes[i] {
			return fmt.Sprintf("probe[%d]: %+v vs %+v", i, r.probes[i], o.probes[i])
		}
	}
	if len(r.curve) != len(o.curve) {
		return fmt.Sprintf("curve: %d vs %d values", len(r.curve), len(o.curve))
	}
	for i := range r.curve {
		// JSON carries float64 exactly (shortest round-trip form) and the
		// curve is bit-reproducible by construction, so == is the right test.
		if r.curve[i] != o.curve[i] && !(math.IsNaN(r.curve[i]) && math.IsNaN(o.curve[i])) {
			return fmt.Sprintf("curve[%d]: %v vs %v", i, r.curve[i], o.curve[i])
		}
	}
	switch {
	case r.triangles != o.triangles:
		return fmt.Sprintf("triangles: %d vs %d", r.triangles, o.triangles)
	case r.curveAt != o.curveAt:
		return fmt.Sprintf("curveEstimate: %v vs %v", r.curveAt, o.curveAt)
	case r.edges != o.edges || r.components != o.components:
		return fmt.Sprintf("graph: %d edges/%d comps vs %d/%d", r.edges, r.components, o.edges, o.components)
	case r.rows != o.rows:
		return fmt.Sprintf("rows: %d vs %d", r.rows, o.rows)
	case r.cachedPairs != o.cachedPairs:
		return fmt.Sprintf("cachedPairs: %d vs %d", r.cachedPairs, o.cachedPairs)
	case r.probeCount != o.probeCount:
		return fmt.Sprintf("probes: %d vs %d", r.probeCount, o.probeCount)
	case r.bytes != o.bytes:
		return fmt.Sprintf("snapshot bytes: %d vs %d", r.bytes, o.bytes)
	}
	return ""
}

// target executes ops. Implementations keep per-slot session state (IDs or
// shadow sessions) and the last snapshot taken, so a script is a plain list.
type target interface {
	do(o *op) (result, error)
}
