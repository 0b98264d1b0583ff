package metrics

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"regexp"
	"strings"
	"sync"
	"testing"
)

// expositionLine matches one valid Prometheus text-format sample or comment
// line; the smoke script applies the same shape check to a live scrape.
var expositionLine = regexp.MustCompile(
	`^(# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]* .*|[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? -?[0-9.eE+-]+|[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? (NaN|[+-]Inf))$`)

func checkFormat(t *testing.T, exposition string) {
	t.Helper()
	if !strings.HasSuffix(exposition, "\n") {
		t.Fatalf("exposition must end with a newline")
	}
	for _, line := range strings.Split(strings.TrimSuffix(exposition, "\n"), "\n") {
		if !expositionLine.MatchString(line) {
			t.Errorf("malformed exposition line: %q", line)
		}
	}
}

func scrape(t *testing.T, r *Registry) string {
	t.Helper()
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	return buf.String()
}

func TestCounterAndFuncs(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_ops_total", "ops")
	c.Inc()
	c.Add(4)
	c.Add(-7) // ignored: counters are monotone
	if got := c.Load(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	ext := int64(42)
	r.CounterFunc("test_ext_total", "external view", func() int64 { return ext })
	r.GaugeFunc("test_depth", "a gauge", func() float64 { return 2.5 })

	out := scrape(t, r)
	checkFormat(t, out)
	for _, want := range []string{
		"# TYPE test_ops_total counter",
		"test_ops_total 5",
		"test_ext_total 42",
		"# TYPE test_depth gauge",
		"test_depth 2.5",
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

// TestJSONIsEveryUnlabeledFamily: JSON keys each unlabeled family by name,
// in name order — counters, callback counters and gauges alike — leaves
// labeled families to the exposition, and stays valid JSON for a gauge no
// JSON number can carry.
func TestJSONIsEveryUnlabeledFamily(t *testing.T) {
	r := NewRegistry()
	r.Counter("test_ops_total", "ops").Add(5)
	r.CounterFunc("test_ext_total", "external view", func() int64 { return 42 })
	r.GaugeFunc("test_depth", "a gauge", func() float64 { return 2.5 })
	r.GaugeFunc("test_broken", "a gauge gone wrong", math.NaN)
	r.CounterVec("test_req_total", "requests", "route").With("/a").Inc()
	r.HistogramVec("test_latency_seconds", "latency", nil, "route").With("/a").Observe(0.1)

	want := `{"test_broken":null,"test_depth":2.5,"test_ext_total":42,"test_ops_total":5}`
	got := r.JSON()
	if string(got) != want {
		t.Fatalf("JSON() = %s, want %s", got, want)
	}
	if !json.Valid(got) {
		t.Fatalf("JSON() is not valid JSON: %s", got)
	}
	if empty := NewRegistry().JSON(); string(empty) != "{}" {
		t.Fatalf("empty registry: JSON() = %s, want {}", empty)
	}
}

func TestCounterVecDeterministicOrder(t *testing.T) {
	r := NewRegistry()
	cv := r.CounterVec("test_req_total", "requests", "route", "code")
	// Register in non-sorted order; exposition must sort by label values.
	cv.With("/z", "5xx").Add(1)
	cv.With("/a", "2xx").Add(3)
	cv.With("/a", "4xx").Add(2)

	out := scrape(t, r)
	checkFormat(t, out)
	want := `# HELP test_req_total requests
# TYPE test_req_total counter
test_req_total{route="/a",code="2xx"} 3
test_req_total{route="/a",code="4xx"} 2
test_req_total{route="/z",code="5xx"} 1
`
	if out != want {
		t.Fatalf("exposition not deterministic/sorted:\ngot:\n%s\nwant:\n%s", out, want)
	}
	if out2 := scrape(t, r); out2 != out {
		t.Fatalf("two scrapes of the same state differ")
	}
}

func TestSeriesKeyNoCollision(t *testing.T) {
	r := NewRegistry()
	cv := r.CounterVec("test_k_total", "k", "a", "b")
	cv.With("x", "yz").Inc()
	cv.With("xy", "z").Inc()
	out := scrape(t, r)
	if !strings.Contains(out, `{a="x",b="yz"} 1`) || !strings.Contains(out, `{a="xy",b="z"} 1`) {
		t.Fatalf("label tuples collided:\n%s", out)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	hv := r.HistogramVec("test_lat_seconds", "latency", []float64{0.1, 1, 10}, "route")
	h := hv.With("/p")
	for _, v := range []float64{0.05, 0.1, 0.5, 20} { // 0.1 is inclusive in le=0.1
		h.Observe(v)
	}
	if got := h.Sum(); got != 20.65 {
		t.Fatalf("sum = %v, want 20.65", got)
	}
	out := scrape(t, r)
	checkFormat(t, out)
	for _, want := range []string{
		`test_lat_seconds_bucket{route="/p",le="0.1"} 2`,
		`test_lat_seconds_bucket{route="/p",le="1"} 3`,
		`test_lat_seconds_bucket{route="/p",le="10"} 3`,
		`test_lat_seconds_bucket{route="/p",le="+Inf"} 4`,
		`test_lat_seconds_sum{route="/p"} 20.65`,
		`test_lat_seconds_count{route="/p"} 4`,
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestFamiliesSortedByName(t *testing.T) {
	r := NewRegistry()
	r.Counter("zzz_total", "z").Inc()
	r.Counter("aaa_total", "a").Inc()
	r.Counter("mmm_total", "m").Inc()
	out := scrape(t, r)
	za := strings.Index(out, "aaa_total")
	zm := strings.Index(out, "mmm_total")
	zz := strings.Index(out, "zzz_total")
	if !(za < zm && zm < zz) {
		t.Fatalf("families not sorted by name:\n%s", out)
	}
}

func TestRegisterShapeClashPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("test_total", "c")
	defer func() {
		if recover() == nil {
			t.Fatalf("re-registering with a different shape must panic")
		}
	}()
	r.CounterVec("test_total", "c", "route")
}

func TestConcurrentUse(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_conc_total", "c")
	cv := r.CounterVec("test_conc_vec_total", "c", "w")
	hv := r.HistogramVec("test_conc_seconds", "h", nil, "w")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			lbl := fmt.Sprintf("w%d", w%3)
			for i := 0; i < 500; i++ {
				c.Inc()
				cv.With(lbl).Inc()
				hv.With(lbl).Observe(float64(i) / 1000)
				if i%100 == 0 { // registration races the readers too
					r.Counter(fmt.Sprintf("test_reg_%d_%d_total", w, i), "r").Inc()
				}
			}
		}(w)
	}
	// Scrape concurrently with the writers: each scrape must stay
	// well-formed (no torn lines) even while counters move.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			checkFormat(t, scrape(t, r))
			if js := r.JSON(); !json.Valid(js) {
				t.Errorf("JSON() is not valid JSON: %s", js)
			}
		}
	}()
	wg.Wait()
	<-done
	if c.Load() != 8*500 {
		t.Fatalf("lost increments: %d", c.Load())
	}
	var total int64
	for i := 0; i < 3; i++ {
		total += cv.With(fmt.Sprintf("w%d", i)).Load()
	}
	if total != 8*500 {
		t.Fatalf("vec lost increments: %d", total)
	}
	var values map[string]float64
	if err := json.Unmarshal(r.JSON(), &values); err != nil || len(values) != 1+8*5 {
		t.Fatalf("want the counter plus 40 registered families, got %d (err %v)", len(values), err)
	}
}
