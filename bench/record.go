package main

import (
	"fmt"
	"slices"
	"time"
)

// recorder collects what one pass measured: per-class latencies, per-unit
// wall times, derived per-op ratios, and the attempted/failed tally.
type recorder struct {
	lat   map[string][]float64 // class -> seconds per op
	units []float64            // seconds per scripted unit (session lifecycle or visit)

	firstAnswer  []float64 // create + first probe, seconds
	ingestRate   []float64 // rows/s per append
	bytesPerPair []float64 // snapshot bytes / cached pairs

	attempted, failed int
	errs              []string // the first few failures, for the report
	proxied           int      // cluster: answers served by another node than the entry node

	spans *spanLog // non-nil in the traced pass
}

func newRecorder() *recorder { return &recorder{lat: make(map[string][]float64)} }

const maxErrs = 8

func (r *recorder) fail(format string, args ...any) {
	r.failed++
	if len(r.errs) < maxErrs {
		r.errs = append(r.errs, fmt.Sprintf(format, args...))
	}
}

// merge folds another client's recorder into r.
func (r *recorder) merge(o *recorder) {
	for cls, xs := range o.lat {
		r.lat[cls] = append(r.lat[cls], xs...)
	}
	r.units = append(r.units, o.units...)
	r.firstAnswer = append(r.firstAnswer, o.firstAnswer...)
	r.ingestRate = append(r.ingestRate, o.ingestRate...)
	r.bytesPerPair = append(r.bytesPerPair, o.bytesPerPair...)
	r.attempted += o.attempted
	r.failed += o.failed
	for _, e := range o.errs {
		if len(r.errs) < maxErrs {
			r.errs = append(r.errs, e)
		}
	}
}

// runScript executes ops against t, timing each and filing it under its
// class. unit identifies the script for span and error labels. When keep is
// non-nil every op's result is stored there (index-aligned with ops) for
// the later comparison with a shadow. The script stops at its first failed
// op: later ops depend on the state the failed one should have produced.
func runScript(t target, layer string, unit int, ops []op, rec *recorder, keep []result) time.Duration {
	start := time.Now()
	var create float64
	cachedPairs := make(map[int]int)
	var prev result
	for i := range ops {
		o := &ops[i]
		rec.attempted++
		t0 := time.Now()
		res, err := t.do(o)
		d := time.Since(t0)
		if rec.spans != nil {
			rec.spans.add(layer, unit, i, o, t0, d)
		}
		if err != nil {
			rec.fail("unit %d op %d (%v slot %d): %v", unit, i, o.kind, o.slot, err)
			break
		}
		if keep != nil {
			keep[i] = res
		}
		secs := d.Seconds()
		if o.class != clsUntimed {
			rec.lat[o.class] = append(rec.lat[o.class], secs)
		}
		switch o.class {
		case clsCreate:
			create = secs
		case clsFirst:
			rec.firstAnswer = append(rec.firstAnswer, create+secs)
		case clsAppend:
			rec.ingestRate = append(rec.ingestRate, float64(o.to-o.from)/secs)
		case clsSnapshot:
			if n := cachedPairs[o.slot]; n > 0 {
				rec.bytesPerPair = append(rec.bytesPerPair, float64(res.bytes)/float64(n))
			}
		}
		if o.kind == opInfo {
			cachedPairs[o.slot] = res.cachedPairs
		}
		// A restored copy must answer exactly like its original.
		if o.sameAsPrev {
			if diff := res.diff(prev); diff != "" {
				rec.fail("unit %d op %d: restored session disagrees with its original: %s", unit, i, diff)
			}
		}
		prev = res
	}
	return time.Since(start)
}

// compare replays nothing: it checks results kept from one target against
// those of another, op by op. Ops that answer nothing deterministic
// (daemon-wide reads, housekeeping) carry zero results on both sides.
func compare(rec *recorder, what string, ops []op, got, want []result) {
	for i := range ops {
		rec.attempted++
		if diff := got[i].diff(want[i]); diff != "" {
			rec.fail("%s: op %d (%v slot %d): %s", what, i, ops[i].kind, ops[i].slot, diff)
		}
	}
}

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between order statistics; NaN-free input assumed, 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Sorted(slices.Values(xs))
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[lo+1]*frac
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}
