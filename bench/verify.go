package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"

	"plasmahd/bench/gen"
	"plasmahd/internal/bayeslsh"
	"plasmahd/internal/core"
)

// verify checks the measured pass's answers. Every miss is a failed
// operation and makes the run incorrect.
func verify(ctx context.Context, e *env, rec *recorder, keep []result) error {
	if rec.failed > 0 {
		return nil // the run is already incorrect; a comparison against partial results would only add noise
	}
	if e.mixed != nil {
		return e.mixed.verify(rec)
	}
	// (1) The daemon against the engine: the first measured session replayed
	// on a shadow core.Session must give the same probe counters, curves,
	// cues, graph summaries, row counts and snapshot sizes, op for op.
	ops := e.pool[0]
	shadow := newRecorder()
	want := make([]result, len(ops))
	runScript(newCoreTarget(), "core", 0, ops, shadow, want)
	if shadow.failed > 0 {
		rec.fail("shadow replay failed: %v", shadow.errs)
		return nil
	}
	compare(rec, "daemon vs shadow core.Session", ops, keep, want)

	// (2) The engine against ground truth, on at most 2 000 rows.
	create := ops[0]
	checkAccuracy(rec, create.data, min(create.to, 2000), create.seed, accuracyThreshold(e.cfg.workload), e.cfg.scale >= 1)

	// (3) ingest-stream: a session grown batch by batch equals one created
	// from all rows at once, pair for pair, through the live daemon.
	if e.cfg.workload == "ingest-stream" {
		return checkGrownEqualsScratch(ctx, e, rec)
	}
	return nil
}

func accuracyThreshold(workload string) float64 {
	if workload == "onboard-long" {
		return 0.6
	}
	return 0.7
}

// checkAccuracy probes a fresh engine session over the first n rows and
// compares its pairs with brute force. BayesLSH misses a true pair with
// probability below epsilon, so recall is at least 1-epsilon in expectation;
// the check allows twice that, less three standard errors of a recall
// measured on this many true pairs. Lite mode verifies survivors exactly, so
// the only false positives are float32 roundings at the threshold itself. At
// full scale the sample must hold enough true pairs for the check to mean
// something; a shrunken smoke-test input may not, and then only precision
// is checked.
func checkAccuracy(rec *recorder, d *gen.Data, n int, seed int64, t float64, fullScale bool) {
	rec.attempted++
	ds := d.Dataset(0, n)
	p := bayeslsh.DefaultParams()
	res, err := core.NewSession(ds, p, seed).Probe(t)
	if err != nil {
		rec.fail("accuracy probe: %v", err)
		return
	}
	truth := bayeslsh.Exact(ds, t)
	recall, precision := bayeslsh.RecallPrecision(res.Pairs, truth)
	if len(truth) < 20 {
		if fullScale {
			rec.fail("accuracy check at t=%v has only %d true pairs among %d rows: the generator lost its planted pairs", t, len(truth), n)
		}
		recall = 1 // too few pairs for a recall estimate
	}
	miss := 2 * p.Epsilon
	floor := 1 - miss - 3*math.Sqrt(miss*(1-miss)/float64(max(1, len(truth))))
	if recall < floor || precision < 0.99 {
		rec.fail("accuracy at t=%v on %d rows: recall %.4f (want >= %.3f), precision %.4f (want >= 0.99), %d true pairs",
			t, n, recall, floor, precision, len(truth))
	}
}

// wirePairs is a probe answer with its pairs.
type wirePairs struct {
	wireProbe
	Pairs []struct {
		I   int32   `json:"i"`
		J   int32   `json:"j"`
		Est float64 `json:"est"`
	} `json:"pairs"`
}

// checkGrownEqualsScratch creates one session from a prefix and appends the
// rest in the script's batches, creates a second from all rows at once, and
// probes both once: counters and pairs (rows and estimates) must be equal.
func checkGrownEqualsScratch(ctx context.Context, e *env, rec *recorder) error {
	rec.attempted++
	t := newHTTPTarget(newClient(), e.urls()...)
	var d *gen.Data
	var seed int64
	var sc scriptBuilder
	for _, o := range e.pool[0] {
		switch o.kind {
		case opCreate:
			d, seed = o.data, o.seed
			sc.add(o)
		case opAppend:
			sc.add(o)
		}
	}
	sc.create(slotRestored, d, len(d.Rows), seed)
	setup := newRecorder()
	runScript(t, "client", -1, sc.ops, setup, nil)
	if setup.failed > 0 {
		rec.fail("grown-vs-scratch setup: %v", setup.errs)
		return nil
	}
	body, _ := json.Marshal(map[string]any{"threshold": 0.8, "includePairs": true}) // cannot fail: literals
	var answers [2]wirePairs
	for i, slot := range []int{slotMain, slotRestored} {
		path, err := t.sessionPath(slot, "/probe")
		if err != nil {
			return err
		}
		if _, err := t.call("POST", path, body, &answers[i]); err != nil {
			rec.fail("grown-vs-scratch probe: %v", err)
			return nil
		}
	}
	grown, scratch := answers[0], answers[1]
	switch {
	case grown.counters() != scratch.counters():
		rec.fail("grown session %+v != from-scratch session %+v", grown.counters(), scratch.counters())
	case len(grown.Pairs) != len(scratch.Pairs):
		rec.fail("grown session returned %d pairs, from-scratch %d", len(grown.Pairs), len(scratch.Pairs))
	default:
		for i := range grown.Pairs {
			if grown.Pairs[i] != scratch.Pairs[i] {
				rec.fail("pair %d: grown %+v != from-scratch %+v", i, grown.Pairs[i], scratch.Pairs[i])
				break
			}
		}
	}
	for _, slot := range []int{slotMain, slotRestored} {
		if _, err := t.do(&op{kind: opDelete, slot: slot}); err != nil {
			return fmt.Errorf("grown-vs-scratch cleanup: %w", err)
		}
	}
	return ctx.Err()
}
