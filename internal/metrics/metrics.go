// Package metrics is a stdlib-only Prometheus metrics registry for plasmad:
// atomic counters, callback-backed counters and gauges, and fixed-bucket
// latency histograms, exposed as the Prometheus text format (version 0.0.4)
// with fully deterministic output — families sorted by name, series sorted
// by label values — so two scrapes of the same state are byte-identical and
// tests can pin the exposition.
//
// The design inverts the usual client-library shape: instead of a global
// default registry, every Registry is explicit, and the server's stats
// block holds *Counter handles registered here. JSON renders the same
// families a second way — every unlabeled family keyed by name — so the
// JSON stats view and the /metrics exposition can never disagree.
package metrics

import (
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by delta (negative deltas are ignored:
// counters are monotone by contract).
func (c *Counter) Add(delta int64) {
	if delta > 0 {
		c.v.Add(delta)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Load returns the current value. The name matches atomic.Int64 so a
// counter can drop into code that previously read an atomic directly.
func (c *Counter) Load() int64 { return c.v.Load() }

// Histogram is a fixed-bucket distribution: observation counts per upper
// bound plus a running sum. Buckets are set at registration and never
// change, so Observe is a single atomic add with no allocation.
type Histogram struct {
	bounds []float64      // ascending upper bounds; +Inf is implicit
	counts []atomic.Int64 // len(bounds)+1, last is the +Inf overflow
	sum    atomic.Uint64  // math.Float64bits of the running sum
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i].Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// DefBuckets is the default latency bucket layout in seconds, spanning
// sub-millisecond cue reads to multi-second cold probes.
var DefBuckets = []float64{0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10}

// kind is the Prometheus metric family type.
type kind int

const (
	counterKind kind = iota
	gaugeKind
	histogramKind
)

func (k kind) String() string {
	switch k {
	case counterKind:
		return "counter"
	case gaugeKind:
		return "gauge"
	default:
		return "histogram"
	}
}

// family is one metric family: a name, help text, and its series. Series
// are keyed by their serialized label values; an unlabeled metric is the
// single series with an empty key.
type family struct {
	name   string
	help   string
	kind   kind
	labels []string // label names, fixed at registration

	mu     sync.Mutex
	series map[string]*series
}

// series is one (label values → value source) pair within a family.
type series struct {
	labelValues []string
	counter     *Counter
	counterFn   func() int64
	gaugeFn     func() float64
	hist        *Histogram
}

// Registry holds metric families and renders them as the Prometheus text
// exposition format. All methods are safe for concurrent use; registration
// normally happens once at startup, collection on every scrape.
type Registry struct {
	mu sync.Mutex
	// families is in name order. Registration replaces the slice and never
	// modifies one in place, so a reader may keep the slice it was given.
	families []*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// register adds (or finds) a family, panicking on a name registered twice
// with a different shape — metric names are code-level constants, so a
// clash is a programming error, not a runtime condition.
func (r *Registry) register(name, help string, k kind, labels []string) *family {
	if !validName(name) {
		panic(fmt.Sprintf("metrics: invalid metric name %q", name))
	}
	for _, l := range labels {
		if !validName(l) {
			panic(fmt.Sprintf("metrics: invalid label name %q", l))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	i, ok := slices.BinarySearchFunc(r.families, name, func(f *family, name string) int {
		return strings.Compare(f.name, name)
	})
	if ok {
		f := r.families[i]
		if f.kind != k || strings.Join(f.labels, ",") != strings.Join(labels, ",") {
			panic(fmt.Sprintf("metrics: %s re-registered with a different shape", name))
		}
		return f
	}
	f := &family{name: name, help: help, kind: k, labels: labels, series: make(map[string]*series)}
	r.families = slices.Insert(slices.Clip(r.families), i, f) // a copy: readers may hold the old slice
	return f
}

// validName reports whether s is a legal Prometheus metric or label name.
func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		letter := c == '_' || c == ':' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
		if !letter && (i == 0 || c < '0' || c > '9') {
			return false
		}
	}
	return true
}

// Counter registers (or returns) the unlabeled counter name.
func (r *Registry) Counter(name, help string) *Counter {
	f := r.register(name, help, counterKind, nil)
	f.mu.Lock()
	defer f.mu.Unlock()
	se, ok := f.series[""]
	if !ok {
		se = &series{counter: &Counter{}}
		f.series[""] = se
	}
	return se.counter
}

// CounterFunc registers a counter whose value is read from fn at scrape
// time — a view over an externally owned monotone quantity.
func (r *Registry) CounterFunc(name, help string, fn func() int64) {
	f := r.register(name, help, counterKind, nil)
	f.mu.Lock()
	defer f.mu.Unlock()
	f.series[""] = &series{counterFn: fn}
}

// GaugeFunc registers a gauge whose value is read from fn at scrape time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	f := r.register(name, help, gaugeKind, nil)
	f.mu.Lock()
	defer f.mu.Unlock()
	f.series[""] = &series{gaugeFn: fn}
}

// CounterVec is a family of counters partitioned by label values.
type CounterVec struct {
	f *family
}

// CounterVec registers a labeled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	if len(labels) == 0 {
		panic("metrics: CounterVec needs at least one label")
	}
	return &CounterVec{f: r.register(name, help, counterKind, labels)}
}

// With returns the counter for the given label values, creating it on
// first use. The number of values must match the registered label names.
func (cv *CounterVec) With(values ...string) *Counter {
	se := cv.f.child(values)
	return se.counter
}

// HistogramVec is a family of histograms partitioned by label values.
type HistogramVec struct {
	f      *family
	bounds []float64
}

// HistogramVec registers a labeled histogram family with the given ascending
// upper bounds (+Inf is implicit; nil means DefBuckets).
func (r *Registry) HistogramVec(name, help string, bounds []float64, labels ...string) *HistogramVec {
	if len(labels) == 0 {
		panic("metrics: HistogramVec needs at least one label")
	}
	if bounds == nil {
		bounds = DefBuckets
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("metrics: %s bucket bounds must be strictly ascending", name))
		}
	}
	return &HistogramVec{f: r.register(name, help, histogramKind, labels), bounds: bounds}
}

// With returns the histogram for the given label values, creating it on
// first use.
func (hv *HistogramVec) With(values ...string) *Histogram {
	se := hv.f.childHist(values, hv.bounds)
	return se.hist
}

// seriesKey serializes label values into a map key. Values are
// length-prefixed so distinct value tuples can never collide.
func seriesKey(values []string) string {
	var b strings.Builder
	for _, v := range values {
		fmt.Fprintf(&b, "%d:%s;", len(v), v)
	}
	return b.String()
}

func (f *family) child(values []string) *series {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("metrics: %s wants %d label values, got %d", f.name, len(f.labels), len(values)))
	}
	key := seriesKey(values)
	f.mu.Lock()
	defer f.mu.Unlock()
	se, ok := f.series[key]
	if !ok {
		se = &series{labelValues: append([]string(nil), values...), counter: &Counter{}}
		f.series[key] = se
	}
	return se
}

func (f *family) childHist(values []string, bounds []float64) *series {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("metrics: %s wants %d label values, got %d", f.name, len(f.labels), len(values)))
	}
	key := seriesKey(values)
	f.mu.Lock()
	defer f.mu.Unlock()
	se, ok := f.series[key]
	if !ok {
		se = &series{
			labelValues: append([]string(nil), values...),
			hist:        &Histogram{bounds: bounds, counts: make([]atomic.Int64, len(bounds)+1)},
		}
		f.series[key] = se
	}
	return se
}

// sortedFamilies returns the families in name order. The slice is never
// modified, so callers read values (and run gauge callbacks) without
// holding the registry lock.
func (r *Registry) sortedFamilies() []*family {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.families
}

// WritePrometheus renders every family in the text exposition format,
// deterministically: families in name order, series in label-value order.
func (r *Registry) WritePrometheus(w io.Writer) error {
	for _, f := range r.sortedFamilies() {
		if err := f.write(w); err != nil {
			return err
		}
	}
	return nil
}

// JSON renders every unlabeled family — each a single counter or gauge — as
// one JSON object keyed by family name, in name order. It walks the same
// families as WritePrometheus, so the two views cannot disagree; labeled
// families are exposition-only. A NaN or infinite gauge renders as null.
func (r *Registry) JSON() []byte {
	fams := r.sortedFamilies()
	b := append(make([]byte, 0, 48*len(fams)), '{')
	for _, f := range fams {
		f.mu.Lock()
		se := f.series[""] // labeled series never have the empty key
		f.mu.Unlock()
		if se == nil {
			continue
		}
		if len(b) > 1 {
			b = append(b, ',')
		}
		b = append(b, '"')
		b = append(b, f.name...) // validName: nothing to escape
		b = append(b, '"', ':')
		switch {
		case se.counterFn != nil:
			b = strconv.AppendInt(b, se.counterFn(), 10)
		case se.counter != nil:
			b = strconv.AppendInt(b, se.counter.Load(), 10)
		default:
			if v := se.gaugeFn(); math.IsNaN(v) || math.IsInf(v, 0) {
				b = append(b, "null"...)
			} else {
				b = strconv.AppendFloat(b, v, 'g', -1, 64)
			}
		}
	}
	return append(b, '}')
}

func (f *family) write(w io.Writer) error {
	f.mu.Lock()
	keys := make([]string, 0, len(f.series))
	for k := range f.series {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	snap := make([]*series, len(keys))
	for i, k := range keys {
		snap[i] = f.series[k]
	}
	f.mu.Unlock()
	if len(snap) == 0 {
		return nil
	}
	if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.name, escapeHelp(f.help), f.name, f.kind); err != nil {
		return err
	}
	for _, se := range snap {
		if err := f.writeSeries(w, se); err != nil {
			return err
		}
	}
	return nil
}

func (f *family) writeSeries(w io.Writer, se *series) error {
	labels := renderLabels(f.labels, se.labelValues)
	switch {
	case se.counterFn != nil:
		_, err := fmt.Fprintf(w, "%s%s %d\n", f.name, labels, se.counterFn())
		return err
	case se.counter != nil:
		_, err := fmt.Fprintf(w, "%s%s %d\n", f.name, labels, se.counter.Load())
		return err
	case se.gaugeFn != nil:
		_, err := fmt.Fprintf(w, "%s%s %s\n", f.name, labels, formatFloat(se.gaugeFn()))
		return err
	default:
		return f.writeHistogram(w, se, labels)
	}
}

// writeHistogram renders the conventional triplet: cumulative _bucket series
// (ending at le="+Inf"), _sum, and _count. Bucket counts are read once into
// a snapshot so the cumulative sums are internally consistent even while
// observations land concurrently.
func (f *family) writeHistogram(w io.Writer, se *series, labels string) error {
	h := se.hist
	counts := make([]int64, len(h.counts))
	var total int64
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
		total += counts[i]
	}
	sum := h.Sum()
	// Re-render the label block with le appended inside the braces.
	inner := strings.TrimSuffix(strings.TrimPrefix(labels, "{"), "}")
	var cum int64
	for i, bound := range h.bounds {
		cum += counts[i]
		if _, err := fmt.Fprintf(w, "%s_bucket{%s,le=%q} %d\n", f.name, inner, formatFloat(bound), cum); err != nil {
			return err
		}
	}
	cum += counts[len(counts)-1]
	if _, err := fmt.Fprintf(w, "%s_bucket{%s,le=\"+Inf\"} %d\n", f.name, inner, cum); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", f.name, labels, formatFloat(sum)); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", f.name, labels, total)
	return err
}

// renderLabels serializes a label block, or "" for an unlabeled series.
func renderLabels(names, values []string) string {
	if len(names) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(n)
		b.WriteByte('=')
		b.WriteString(strconv.Quote(values[i]))
	}
	b.WriteByte('}')
	return b.String()
}

// formatFloat renders a float the way Prometheus expects ("0.25", not
// "2.5e-01"; NaN/Inf spelled out).
func formatFloat(v float64) string {
	switch {
	case math.IsNaN(v):
		return "NaN"
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// escapeHelp escapes newlines and backslashes in help text per the format.
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}
