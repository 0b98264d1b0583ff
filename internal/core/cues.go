package core

import (
	"sort"
	"sync"

	"plasmahd/internal/bayeslsh"
	"plasmahd/internal/graph"
	"plasmahd/internal/stats"
)

// CueSet bundles the threshold-graph-derived visual cues of §2.2.3 at one
// threshold: the materialized graph itself plus its triangle incidences,
// density profile, component count, and the curve estimate beside them,
// each computed at most once. A CueSet is immutable from the caller's
// perspective and safe for concurrent use; the slices it returns are
// shared, so treat them as read-only.
type CueSet struct {
	Threshold float64

	s *Session
	g *graph.Graph

	triOnce sync.Once
	triPer  []int64

	profOnce sync.Once
	profile  []int

	compOnce   sync.Once
	components int

	curveOnce sync.Once
	curveEst  float64
}

// Graph returns the materialized threshold graph.
func (cs *CueSet) Graph() *graph.Graph { return cs.g }

// TrianglesPerVertex returns the number of triangles incident on each vertex
// (the Fig 2.5b histogram source), computed on first use.
func (cs *CueSet) TrianglesPerVertex() []int64 {
	cs.triOnce.Do(func() { cs.triPer = cs.g.TrianglesPerVertex() })
	return cs.triPer
}

// Triangles returns the triangle count (each triangle is incident on
// exactly three vertices).
func (cs *CueSet) Triangles() int64 {
	var incidences int64
	for _, c := range cs.TrianglesPerVertex() {
		incidences += c
	}
	return incidences / 3
}

// TriangleHistogram bins the triangle incidences per vertex into at most
// bins buckets over [0, max+1) — the Fig 2.5b vertex-cover histogram. Since
// triangles track clusterability (§2.2.3), a heavy right tail signals
// clusterable data. A graph with no triangles has a single meaningful bucket
// [0, 1), so it gets exactly that one: the requested bin count would report
// every vertex in bucket 0 followed by phantom empty buckets, a shape that
// lies about the data's spread.
func (cs *CueSet) TriangleHistogram(bins int) *stats.Histogram {
	per := cs.TrianglesPerVertex()
	xs := make([]float64, len(per))
	var hi float64
	for i, c := range per {
		xs[i] = float64(c)
		hi = max(hi, xs[i])
	}
	if hi == 0 {
		bins = 1
	}
	return stats.NewHistogram(xs, bins, 0, hi+1)
}

// DensityProfile returns the vertex core numbers sorted descending (the
// Fig 2.5c plot), computed on first use. Callers must not modify it.
func (cs *CueSet) DensityProfile() []int {
	cs.profOnce.Do(func() {
		cores := cs.g.CoreNumbers()
		sort.Sort(sort.Reverse(sort.IntSlice(cores)))
		cs.profile = cores
	})
	return cs.profile
}

// Components returns the number of connected components, computed on first
// use.
func (cs *CueSet) Components() int {
	cs.compOnce.Do(func() { _, cs.components = cs.g.ConnectedComponents() })
	return cs.components
}

// CurveEstimate returns the cumulative-APSS estimate at the threshold — the
// session's CurveAt(Threshold).Estimate — computed on first use, so a
// memoized cue read does not scan the pair store.
func (cs *CueSet) CurveEstimate() float64 {
	cs.curveOnce.Do(func() { cs.curveEst = cs.s.CurveAt(cs.Threshold).Estimate })
	return cs.curveEst
}

// cueCacheSize bounds the session's memoized CueSets. The Fig 2.1 loop
// revisits a handful of thresholds; 8 covers an interactive exploration
// while keeping at most 8 materialized graphs alive.
const cueCacheSize = 8

// cueKey identifies one cached CueSet. pairs, probes, and rows fingerprint
// the session's state at build time: a probe that grows the pair store
// changes pairs, a probe below every earlier one deepens existing evidence
// without growing the store (every probe after the first generates the same
// candidate set) and bumps probes, and an append that adds rows — even one
// that has not yet produced a single new pair — changes rows, so the graph's
// vertex count can never go stale. (Without rows, an append followed by a
// cue read would serve the pre-append graph: same pairs, same probe count,
// wrong vertex set.) A repeat or higher probe changes no evidence but bumps
// probes all the same: the key errs towards one rebuild, never a stale graph.
type cueKey struct {
	t      float64
	pairs  int
	probes int
	rows   int
}

// cueEntry is one LRU slot; once coalesces concurrent builders of the same
// key onto a single graph materialization.
type cueEntry struct {
	once sync.Once
	cs   *CueSet
}

// CueSet returns the memoized cue bundle at threshold t, materializing the
// threshold graph (a full pair-store scan) only when no current entry
// exists. Repeated same-threshold reads — /graph then /cues, or a client
// polling one threshold — are served from the cache; any completed probe
// invalidates by construction of the key.
func (s *Session) CueSet(t float64) *CueSet {
	ds := s.Dataset()
	key := cueKey{t: t, pairs: s.Cache.Pairs.Len(), probes: s.ProbeCount(), rows: ds.N()}
	s.cueMu.Lock()
	if s.cues == nil {
		s.cues = make(map[cueKey]*cueEntry, cueCacheSize)
	}
	e, ok := s.cues[key]
	if ok {
		s.cueHits.Add(1)
		// LRU touch: move the key to the back of the eviction order.
		for i, k := range s.cueOrder {
			if k == key {
				s.cueOrder = append(append(s.cueOrder[:i:i], s.cueOrder[i+1:]...), key)
				break
			}
		}
	} else {
		s.cueMisses.Add(1)
		e = &cueEntry{}
		s.cues[key] = e
		s.cueOrder = append(s.cueOrder, key)
		if len(s.cueOrder) > cueCacheSize {
			delete(s.cues, s.cueOrder[0])
			s.cueOrder = append(s.cueOrder[:0:0], s.cueOrder[1:]...)
		}
	}
	s.cueMu.Unlock()
	e.once.Do(func() {
		e.cs = &CueSet{Threshold: t, s: s, g: s.buildThresholdGraph(t, ds.N())}
	})
	return e.cs
}

// buildThresholdGraph materializes the similarity graph at threshold t from
// the knowledge cache alone — no access to the source data D, as required
// for the interactive cue loop of Fig 2.1. Pairs carry their MAP estimates;
// pairs never examined contribute no edge.
// The vertex count is pinned by the caller (the cue key's rows field), so a
// concurrent append cannot shift the graph under a coalesced build; the
// scan stops at the first pair a concurrent post-append probe may already
// have written beyond that count (the store visits pairs by larger row),
// keeping the graph consistent with its own vertex set.
func (s *Session) buildThresholdGraph(t float64, n int) *graph.Graph {
	var edges [][2]int32
	s.Cache.Pairs.Range(func(key uint64, ps bayeslsh.PairState) bool {
		i, j := bayeslsh.UnpackKey(key)
		if int(j) >= n {
			return false
		}
		if s.Cache.Estimate(ps) >= t {
			edges = append(edges, [2]int32{i, j})
		}
		return true
	})
	return graph.FromEdges(n, edges)
}
