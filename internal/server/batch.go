package server

import (
	"fmt"
	"net/http"
)

// maxBatchThresholds caps one batch request; mirrors the sweep target cap.
const maxBatchThresholds = 256

// batchProbeRequest runs several probes in one round trip: one HTTP
// request, one session acquire, one pass through the per-session
// singleflight table per threshold — the cheap way to fill a curve that
// would otherwise cost N sequential requests (and N rate-limit tokens).
type batchProbeRequest struct {
	Thresholds   []float64 `json:"thresholds"`
	Workers      int       `json:"workers,omitempty"`
	IncludePairs bool      `json:"includePairs,omitempty"`
	MaxPairs     int       `json:"maxPairs,omitempty"` // cap on returned pairs per threshold; 0 = all
}

// batchProbeResult is one threshold's outcome: exactly the single-probe
// response shape on success (byte-identical to what POST .../probe would
// have returned, pinned by test) or an error body on failure.
type batchProbeResult struct {
	probeResponse
	Error *errorBody `json:"error,omitempty"`
}

type batchProbeResponse struct {
	SessionID string             `json:"sessionId"`
	Results   []batchProbeResult `json:"results"`
	Failed    int                `json:"failed"`
}

// handleBatchProbe evaluates every requested threshold sequentially, in
// request order, against the shared knowledge cache. Sequential matters:
// it makes the batch deterministic — identical, threshold for threshold,
// to issuing the same probes one by one — while still sharing each probe's
// evidence with every later one. Per-threshold failures land in that
// threshold's slot; the batch itself still returns 200 with the rest.
func (s *Server) handleBatchProbe(r *http.Request) (int, any, error) {
	var req batchProbeRequest
	if err := decodeJSON(r, &req); err != nil {
		return 0, nil, err
	}
	if len(req.Thresholds) == 0 {
		return 0, nil, badRequest("thresholds must not be empty")
	}
	if len(req.Thresholds) > maxBatchThresholds {
		return 0, nil, badRequest("at most %d thresholds per batch, got %d", maxBatchThresholds, len(req.Thresholds))
	}
	for _, t := range req.Thresholds {
		if !validThreshold(t) {
			return 0, nil, badRequest("thresholds must be in [-1, 1], got %v", t)
		}
	}
	ms, release, err := s.acquire(r)
	if err != nil {
		return 0, nil, err
	}
	resp, err := detach(r, release, fmt.Sprintf("batch of %d probes", len(req.Thresholds)), func() (batchProbeResponse, error) {
		resp := batchProbeResponse{SessionID: ms.ID, Results: make([]batchProbeResult, len(req.Thresholds))}
		for i, t := range req.Thresholds {
			resp.Results[i] = s.batchItem(ms, t, &req)
			if resp.Results[i].Error != nil {
				resp.Failed++
			}
		}
		return resp, nil
	})
	if err != nil {
		return 0, nil, err
	}
	s.probeBatches.Inc()
	s.mgr.stats.Errors.Add(int64(resp.Failed))
	return http.StatusOK, resp, nil
}

// batchItem runs one threshold of a batch. A failure costs only this slot,
// a panicking probe included: ManagedSession.Probe reports it as an error.
func (s *Server) batchItem(ms *ManagedSession, t float64, req *batchProbeRequest) batchProbeResult {
	res, coalesced, err := ms.Probe(t, req.Workers, &s.mgr.stats)
	if err != nil {
		return batchProbeResult{
			probeResponse: probeResponse{SessionID: ms.ID, Threshold: t},
			Error:         &errorBody{Code: "internal", Message: fmt.Sprintf("probe failed: %v", err)},
		}
	}
	return batchProbeResult{probeResponse: probeResponseOf(ms.ID, t, res, coalesced, req.IncludePairs, req.MaxPairs)}
}
