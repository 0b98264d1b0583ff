package server

import (
	"fmt"
	"time"

	"plasmahd/internal/bayeslsh"
	"plasmahd/internal/core"
	"plasmahd/internal/dataset"
	"plasmahd/internal/stats"
	"plasmahd/internal/vec"
)

// ---- wire types ----

// paramsJSON is a create request's params: bayeslsh.Params under its JSON
// tags, decoded over the defaults so that absent and null fields keep them.
// It is a defined type so that a decode error names it.
type paramsJSON bayeslsh.Params

// sparseRow is one uploaded sparse vector. Omitted values mean all-ones
// for cosine; a Jaccard row is its index set and keeps no values.
type sparseRow struct {
	Indices []int32   `json:"indices"`
	Values  []float64 `json:"values,omitempty"`
}

// uploadRows returns an upload's rows under measure m once each passes
// vec.Sparse.Check against the dimension. Omitted cosine values become
// all-ones, every such row a window into one block for the body. Sent
// values are counted under either measure; the dataset's NormalizeRows then
// drops a Jaccard row's.
func uploadRows(up []sparseRow, dim int, m vec.Measure) ([]vec.Sparse, error) {
	var ones []float64
	if m == vec.CosineSim {
		n := 0
		for _, row := range up {
			if row.Values == nil {
				n += len(row.Indices)
			}
		}
		ones = make([]float64, n)
		for i := range ones {
			ones[i] = 1
		}
	}
	rows := make([]vec.Sparse, len(up))
	for ri, row := range up {
		v := vec.Sparse{Indices: row.Indices, Values: row.Values}
		if v.Values == nil && m == vec.CosineSim {
			k := len(v.Indices)
			v.Values, ones = ones[:k:k], ones[k:]
		}
		if err := v.Check(dim, m); err != nil {
			return nil, fmt.Errorf("sparse row %d: %w", ri, err)
		}
		rows[ri] = v
	}
	return rows, nil
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
	Params  paramsJSON    `json:"params"`
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
// (strictly increasing indices in [0, dim), omitted values mean all-ones
// for cosine, and a Jaccard session keeps no values).
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

type probeResponse struct {
	SessionID      string          `json:"sessionId"`
	Threshold      float64         `json:"threshold"`
	PairCount      int             `json:"pairCount"`
	Candidates     int             `json:"candidates"`
	Pruned         int             `json:"pruned"`
	CacheHits      int             `json:"cacheHits"`
	HashesCompared int64           `json:"hashesCompared"`
	RowsWalked     int             `json:"rowsWalked"`
	ProcessMillis  float64         `json:"processMillis"`
	Coalesced      bool            `json:"coalesced"`
	Pairs          []bayeslsh.Pair `json:"pairs,omitempty"`
}

type curveResponse struct {
	SessionID string            `json:"sessionId"`
	Points    []core.CurvePoint `json:"points"`
	Knee      float64           `json:"knee"`
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

type cuesResponse struct {
	SessionID         string          `json:"sessionId"`
	Threshold         float64         `json:"threshold"`
	Triangles         int64           `json:"triangles"`
	TriangleHistogram stats.Histogram `json:"triangleHistogram"`
	DensityProfile    []int           `json:"densityProfile"`
	CurveAt           float64         `json:"curveEstimate"`
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
