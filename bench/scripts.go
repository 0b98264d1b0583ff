package main

import (
	"encoding/json"
	"math"
	"math/rand"

	"plasmahd/bench/gen"
)

// Input shapes, one per dataset role. Every parameter the generators take
// is fixed here (BENCHMARK.json's schema has no room for them); README.md
// records the calibration behind each number. Row counts are the full-scale
// values; runConfig.scale shrinks them for the in-process smoke test.
var (
	// explore-dense: ~62 % of row pairs share a head token and become
	// candidates (~78 k cached pairs at 500 rows), ~23 distinct tokens a
	// row, similar pairs thinning out from 0.6 to 0.9.
	denseCorpus = gen.ZipfCosine{Rows: 500, Dim: 6000, MinNnz: 30, MaxNnz: 60, ZipfS: 1.25,
		Communities: 40, Cohesion: 0.85, BlockZipfS: 1.3}
	// onboard-long: ~110 tokens a row over 1.25 M dimensions, ~13 candidates
	// a row, near-duplicate groups supplying pairs from 0.6 to 0.9; a 2.2 MB
	// JSON upload.
	longSets = gen.LongsetJaccard{Rows: 2500, Dim: 1_250_000, MinNnz: 100, MaxNnz: 120,
		GroupFrac: 0.3, GroupMin: 2, GroupMax: 6, KeepLo: 0.85, KeepHi: 0.98}
	// serve-mixed's Jaccard sessions: the same family, sized like its
	// cosine neighbours so no single session dominates a node.
	mixedSets = gen.LongsetJaccard{Rows: 1500, Dim: 750_000, MinNnz: 100, MaxNnz: 120,
		GroupFrac: 0.3, GroupMin: 2, GroupMax: 6, KeepLo: 0.85, KeepHi: 0.98}
)

const (
	lateBatches   = 3  // explore-dense, onboard-long: late rows arrive in this many appends
	exploreAppend = 20 // rows per late append
	onboardAppend = 40
	ingestStart   = 150 // ingest-stream: initial upload, then ingestBatches x ingestBatch
	ingestBatch   = 50
	ingestBatches = 8
	mixedRows     = 400 // serve-mixed: rows per resident cosine session
	mixedTempRows = 300 // serve-mixed: rows of a lifecycle visit's temporary session
	readBurst     = 8   // rounds of the five read requests per session
	curveSteps    = 14
	mixedSteps    = 8
)

func scaled(n int, scale float64, floor int) int {
	return max(floor, int(math.Round(float64(n)*scale)))
}

func probeBody(t float64) []byte {
	b, _ := json.Marshal(map[string]float64{"threshold": t}) // cannot fail: one finite float
	return b
}

func batchBody(ts []float64) []byte {
	b, _ := json.Marshal(map[string][]float64{"thresholds": ts}) // cannot fail: finite floats
	return b
}

// scriptBuilder accumulates one session script.
type scriptBuilder struct{ ops []op }

func (b *scriptBuilder) add(o op) { b.ops = append(b.ops, o) }

func (b *scriptBuilder) create(slot int, d *gen.Data, rows int, seed int64) {
	b.add(op{kind: opCreate, slot: slot, class: clsCreate, data: d, to: rows, seed: seed, body: d.CreateBody(rows, seed)})
}

func (b *scriptBuilder) probe(slot int, class string, t float64) {
	b.add(op{kind: opProbe, slot: slot, class: class, t: t, body: probeBody(t)})
}

// probePair probes a session and its restored copy at one threshold; both
// hold the same state, so the second answer must equal the first.
func (b *scriptBuilder) probePair(orig, copy int, t float64) {
	b.probe(orig, clsProbe, t)
	b.add(op{kind: opProbe, slot: copy, class: clsProbe, t: t, body: probeBody(t), sameAsPrev: true})
}

func (b *scriptBuilder) curve(slot int, lo, hi float64, steps int) {
	b.add(op{kind: opCurve, slot: slot, class: clsCurve, lo: lo, hi: hi, steps: steps})
}

func (b *scriptBuilder) appendRows(slot int, d *gen.Data, from, to int) {
	b.add(op{kind: opAppend, slot: slot, class: clsAppend, data: d, from: from, to: to, body: d.AppendBody(from, to)})
}

// appendLate appends rows [from, len) in lateBatches equal appends.
func (b *scriptBuilder) appendLate(slot int, d *gen.Data, from int) {
	step := (len(d.Rows) - from) / lateBatches
	for i := 0; i < lateBatches; i++ {
		b.appendRows(slot, d, from+i*step, from+(i+1)*step)
	}
}

// reads issues rounds of the read class against a session whose cue set at
// t is already materialised: session summary, memoised cues and graph, and
// the two daemon-wide views.
func (b *scriptBuilder) reads(slot int, t float64, rounds int) {
	for i := 0; i < rounds; i++ {
		b.add(op{kind: opInfo, slot: slot, class: clsRead})
		b.add(op{kind: opCues, slot: slot, class: clsRead, t: t})
		b.add(op{kind: opGraph, slot: slot, class: clsRead, t: t})
		b.add(op{kind: opStats, class: clsRead})
		b.add(op{kind: opMetrics, class: clsRead})
	}
}

// Session slots of a single-node script.
const (
	slotMain     = 0 // the analyst's session
	slotRestored = 1 // its restored copy
	slotFiller   = 2 // a 2-row session used only as LRU pressure
)

// saveRestoreRevive is the common tail of every single-node session: archive
// the session, restore the archive as a second session, check the two answer
// alike, then walk away and come back. The daemon runs with -capacity 2, so
// creating the filler evicts and spills the least-recently-used of the two
// big sessions (the original); touching the copy leaves the filler as the
// next victim, so the revive that follows pays one blob read and one
// snapshot decode plus a 2-row spill — the cost a user sees when returning
// to a session the daemon had parked.
func (b *scriptBuilder) saveRestoreRevive(t float64) {
	b.add(op{kind: opInfo, slot: slotMain, class: clsRead}) // cachedPairs for snapshot_bytes_per_pair
	b.add(op{kind: opSnapshot, slot: slotMain, class: clsSnapshot})
	b.add(op{kind: opRestore, slot: slotRestored, class: clsRestore})
	// Same state, same threshold: the two answers must be identical.
	b.probePair(slotMain, slotRestored, t)
	b.add(op{kind: opFiller, slot: slotFiller, class: clsSpill})
	b.add(op{kind: opInfo, slot: slotRestored, class: clsUntimed})
	b.add(op{kind: opInfo, slot: slotMain, class: clsRevive})
	for _, slot := range []int{slotMain, slotRestored, slotFiller} {
		b.add(op{kind: opDelete, slot: slot, class: clsUntimed})
	}
}

// exploreScript is one explore-dense session (see README.md, "Workloads").
func exploreScript(d *gen.Data, rows int, seed int64) []op {
	var b scriptBuilder
	b.create(slotMain, d, rows, seed)
	b.probe(slotMain, clsFirst, 0.9)
	for _, t := range []float64{0.8, 0.7, 0.6} {
		b.probe(slotMain, clsProbe, t)
	}
	b.curve(slotMain, 0.5, 0.95, curveSteps)
	b.add(op{kind: opCues, slot: slotMain, class: clsCuesCold, t: 0.7})
	b.add(op{kind: opCues, slot: slotMain, class: clsCuesCold, t: 0.8})
	b.reads(slotMain, 0.8, readBurst)
	b.probe(slotMain, clsProbe, 0.8)
	b.probe(slotMain, clsProbe, 0.8)
	b.curve(slotMain, 0.5, 0.95, curveSteps)
	b.appendLate(slotMain, d, rows)
	b.probe(slotMain, clsProbe, 0.8)
	b.saveRestoreRevive(0.8)
	return b.ops
}

// onboardScript is one onboard-long session.
func onboardScript(d *gen.Data, rows int, seed int64) []op {
	var b scriptBuilder
	b.create(slotMain, d, rows, seed)
	b.probe(slotMain, clsFirst, 0.9)
	for _, t := range []float64{0.8, 0.7, 0.6} {
		b.probe(slotMain, clsProbe, t)
	}
	b.curve(slotMain, 0.5, 0.95, curveSteps)
	b.add(op{kind: opCues, slot: slotMain, class: clsCuesCold, t: 0.6})
	b.reads(slotMain, 0.6, readBurst)
	b.appendLate(slotMain, d, rows)
	b.probe(slotMain, clsProbe, 0.6)
	b.add(op{kind: opCues, slot: slotMain, class: clsCuesCold, t: 0.6})
	b.saveRestoreRevive(0.6)
	return b.ops
}

// ingestScript is one ingest-stream session: a small upload grown batch by
// batch, probed after every batch, cues after every second one (the append
// and the probe both invalidate the memoised graph, so each is cold).
func ingestScript(d *gen.Data, start, batch int, seed int64) []op {
	var b scriptBuilder
	b.create(slotMain, d, start, seed)
	b.probe(slotMain, clsFirst, 0.8)
	n := start
	for i := 0; n+batch <= len(d.Rows); i++ {
		b.appendRows(slotMain, d, n, n+batch)
		n += batch
		b.probe(slotMain, clsProbe, 0.8)
		if i%2 == 1 {
			b.add(op{kind: opCues, slot: slotMain, class: clsCuesCold, t: 0.8})
			b.reads(slotMain, 0.8, readBurst/4)
		}
	}
	b.curve(slotMain, 0.5, 0.95, curveSteps)
	b.saveRestoreRevive(0.8)
	return b.ops
}

// sessionPool generates the pool of session scripts a single-node workload
// cycles through: each from its own data seed, so one run averages over
// several datasets of the family.
func sessionPool(workload string, seed int64, scale float64, n int) [][]op {
	rng := rand.New(rand.NewSource(seed))
	pool := make([][]op, n)
	for i := range pool {
		dataSeed, sketchSeed := rng.Int63(), 1+rng.Int63n(1<<30)
		switch workload {
		case "explore-dense":
			p := denseCorpus
			rows := scaled(p.Rows, scale, 60)
			p.Rows = rows + lateBatches*scaled(exploreAppend, scale, 5)
			pool[i] = exploreScript(p.Generate(dataSeed), rows, sketchSeed)
		case "onboard-long":
			p := longSets
			rows := scaled(p.Rows, scale, 100)
			p.Rows = rows + lateBatches*scaled(onboardAppend, scale, 5)
			p.Dim = scaled(p.Dim, scale, 50_000)
			pool[i] = onboardScript(p.Generate(dataSeed), rows, sketchSeed)
		case "ingest-stream":
			p := denseCorpus
			start, batch := scaled(ingestStart, scale, 30), scaled(ingestBatch, scale, 10)
			p.Rows = start + ingestBatches*batch
			pool[i] = ingestScript(p.Generate(dataSeed), start, batch, sketchSeed)
		}
	}
	return pool
}
