package server

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"

	"plasmahd/internal/bayeslsh"
)

// timingFields matches the response fields that carry wall times; their
// values are masked before bodies are compared.
var timingFields = regexp.MustCompile(`"(processMillis|sketchMillis|createdAt|lastUsedAt)":("[^"]*"|[-0-9.e+]+)`)

// sessionID matches a created session's ID in its info body.
var sessionID = regexp.MustCompile(`"id":"([^"]*)"`)

// TestResponseBytes drives one wine session through the routes whose bodies
// encode engine values (pairs, curve points, histograms) and five create
// bodies that exercise params decoding, then two uploads, which the row
// scanner decodes over the defaults and the daemon's workers. It compares
// every body, wall times masked, byte for byte with
// testdata/responses.golden. A created session's params are recorded beside
// its body, so a body that decodes to different params fails too. An
// intended response change edits the golden by hand from the printed body.
func TestResponseBytes(t *testing.T) {
	srv := New(Config{Capacity: 8, Workers: 2, RequestTimeout: 30 * time.Second})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	var got bytes.Buffer
	send := func(name, method, path, body string) {
		t.Helper()
		req, err := http.NewRequest(method, ts.URL+path, strings.NewReader(body))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("%s: read body: %v", name, err)
		}
		fmt.Fprintf(&got, "== %s %d\n%s", name, resp.StatusCode, timingFields.ReplaceAll(raw, []byte(`"$1":0`)))
		if method == "POST" && path == "/v1/sessions" && resp.StatusCode == http.StatusCreated {
			id := sessionID.FindSubmatch(raw)
			ms, release, err := srv.mgr.Acquire(string(id[1]))
			if err != nil {
				t.Fatalf("%s: acquire %s: %v", name, id[1], err)
			}
			fmt.Fprintf(&got, "params %+v\n", ms.Session.Cache.Params)
			release()
		}
	}

	send("create", "POST", "/v1/sessions", `{"dataset":{"kind":"table","name":"wine"},"seed":1,`+
		`"params":{"epsilon":0.02,"delta":0.05,"gamma":0.04,"maxHashes":192,"step":16,"lite":false,"workers":2}}`)
	send("probe", "POST", "/v1/sessions/s1/probe", `{"threshold":0.8,"includePairs":true,"maxPairs":12}`)
	send("probes", "POST", "/v1/sessions/s1/probes", `{"thresholds":[0.9,0.7],"includePairs":true,"maxPairs":5}`)
	send("curve", "GET", "/v1/sessions/s1/curve", "")
	send("cues-0.8", "GET", "/v1/sessions/s1/cues?t=0.8", "")
	send("cues-1", "GET", "/v1/sessions/s1/cues?t=1", "")
	send("graph", "GET", "/v1/sessions/s1/graph?t=0.8", "")
	for _, c := range []struct{ name, params string }{
		{"params-type-error", `{"maxHashes":1.5}`},
		{"params-unknown-field", `{"maxDFFrac":0.2}`},
		{"params-invalid", `{"step":0}`},
		{"params-null", `null`},
		{"params-null-field", `{"workers":null,"Lite":false}`},
	} {
		send(c.name, "POST", "/v1/sessions", `{"dataset":{"kind":"toy"},"seed":1,"params":`+c.params+`}`)
	}
	// An unprobed session has no edge: its histogram is one bucket.
	send("cues-1-unprobed", "GET", "/v1/sessions/s2/cues?t=1", "")
	for _, c := range []struct{ name, body string }{
		{"upload-params", `{"dense":[[1,0],[0,1],[1,1]],"params":{"step":16}}`},
		{"upload-no-params", `{"dense":[[1,0],[0,1],[1,1]]}`},
	} {
		if !scans(true, []byte(c.body)) {
			t.Fatalf("%s: the row scanner declined %s", c.name, c.body)
		}
		send(c.name, "POST", "/v1/sessions", c.body)
	}

	golden := filepath.Join("testdata", "responses.golden")
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("response bodies differ from %s:\n--- got\n%s--- want\n%s", golden, got.Bytes(), want)
	}
}

// TestParamsWireFields: the create request decodes params straight into
// bayeslsh.Params, so its JSON-visible fields are exactly what a client may
// set. A new Params field fails this test until it is tagged `json:"-"` or
// added here, with a bound in Validate.
func TestParamsWireFields(t *testing.T) {
	want := []string{"epsilon", "delta", "gamma", "maxHashes", "step", "lite", "workers"}
	var got []string
	for _, f := range reflect.VisibleFields(reflect.TypeFor[bayeslsh.Params]()) {
		tag := f.Tag.Get("json")
		if !f.IsExported() || tag == "-" {
			continue
		}
		name, _, _ := strings.Cut(tag, ",")
		if name == "" {
			name = f.Name
		}
		got = append(got, name)
	}
	if !slices.Equal(got, want) {
		t.Errorf("params a create request may set: %q, want %q", got, want)
	}
}
