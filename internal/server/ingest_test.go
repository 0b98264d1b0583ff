package server

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"
	"unsafe"

	"plasmahd/internal/vec"
	"plasmahd/internal/vec/vectest"
)

// ingestRows builds a deterministic dense matrix.
func ingestRows(lo, hi int) [][]float64 {
	out := make([][]float64, 0, hi-lo)
	for i := lo; i < hi; i++ {
		row := make([]float64, 8)
		for d := range row {
			row[d] = float64((i*7+d*3)%5) * 0.5
		}
		row[i%8] += 1 // keep every row nonzero
		out = append(out, row)
	}
	return out
}

func createDense(t *testing.T, base string, rows [][]float64) sessionInfo {
	t.Helper()
	var info sessionInfo
	st := call(t, "POST", base+"/v1/sessions",
		map[string]any{"dense": rows, "measure": "cosine", "name": "ingest"}, &info)
	if st != http.StatusCreated {
		t.Fatalf("create session: status %d", st)
	}
	return info
}

func probePairs(t *testing.T, base, id string, threshold float64) probeResponse {
	t.Helper()
	var resp probeResponse
	st := call(t, "POST", base+"/v1/sessions/"+id+"/probe",
		map[string]any{"threshold": threshold, "includePairs": true}, &resp)
	if st != http.StatusOK {
		t.Fatalf("probe %s: status %d", id, st)
	}
	return resp
}

// TestAppendRowsEndpoint: the HTTP half of the differential ingest harness.
// A session grown over the wire must probe identically to one created from
// the full upload, for both request shapes.
func TestAppendRowsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, 8)
	full := ingestRows(0, 40)

	grown := createDense(t, ts.URL, full[:25])
	var ar appendRowsResponse
	st := call(t, "POST", ts.URL+"/v1/sessions/"+grown.ID+"/rows",
		map[string]any{"dense": full[25:]}, &ar)
	if st != http.StatusOK {
		t.Fatalf("append: status %d", st)
	}
	if ar.Appended != 15 || ar.Rows != 40 || ar.AppendEpoch != 1 {
		t.Fatalf("append response %+v, want 15 appended, 40 rows, epoch 1", ar)
	}

	var info sessionInfo
	if st := call(t, "GET", ts.URL+"/v1/sessions/"+grown.ID, nil, &info); st != 200 || info.Rows != 40 {
		t.Fatalf("session summary after append: status %d rows %d", st, info.Rows)
	}

	scratch := createDense(t, ts.URL, full)
	want := probePairs(t, ts.URL, scratch.ID, 0.8)
	got := probePairs(t, ts.URL, grown.ID, 0.8)
	if want.PairCount != got.PairCount || want.Candidates != got.Candidates ||
		want.Pruned != got.Pruned || want.HashesCompared != got.HashesCompared {
		t.Fatalf("grown probe differs from scratch: %+v vs %+v", got, want)
	}
	if len(want.Pairs) != len(got.Pairs) {
		t.Fatalf("pair lists: %d vs %d", len(got.Pairs), len(want.Pairs))
	}
	for i := range want.Pairs {
		if want.Pairs[i] != got.Pairs[i] {
			t.Fatalf("pair %d: %+v vs %+v", i, got.Pairs[i], want.Pairs[i])
		}
	}

	// The rows counter made it to /metrics.
	if exp := scrapeMetrics(t, ts.URL); !strings.Contains(exp, "plasmad_rows_appended_total 15") {
		t.Fatal("metrics missing plasmad_rows_appended_total 15")
	}
}

// TestAppendRowsSparse: the sparse request shape, values omitted, against
// a Jaccard session.
func TestAppendRowsSparse(t *testing.T) {
	_, ts := newTestServer(t, 4)
	mkRow := func(i int) map[string]any {
		return map[string]any{"indices": []int32{int32(i % 3), int32(3 + i%2), 6}}
	}
	rows := make([]map[string]any, 0, 8)
	for i := 0; i < 8; i++ {
		rows = append(rows, mkRow(i))
	}
	var grown sessionInfo
	st := call(t, "POST", ts.URL+"/v1/sessions", map[string]any{
		"sparse":  map[string]any{"dim": 8, "rows": rows[:5]},
		"measure": "jaccard",
	}, &grown)
	if st != http.StatusCreated {
		t.Fatalf("create: status %d", st)
	}
	var ar appendRowsResponse
	st = call(t, "POST", ts.URL+"/v1/sessions/"+grown.ID+"/rows",
		map[string]any{"sparse": rows[5:]}, &ar)
	if st != http.StatusOK || ar.Rows != 8 {
		t.Fatalf("sparse append: status %d resp %+v", st, ar)
	}

	var scratch sessionInfo
	st = call(t, "POST", ts.URL+"/v1/sessions", map[string]any{
		"sparse":  map[string]any{"dim": 8, "rows": rows},
		"measure": "jaccard",
	}, &scratch)
	if st != http.StatusCreated {
		t.Fatalf("create full: status %d", st)
	}
	want := probePairs(t, ts.URL, scratch.ID, 0.5)
	got := probePairs(t, ts.URL, grown.ID, 0.5)
	if want.PairCount != got.PairCount || len(want.Pairs) != len(got.Pairs) {
		t.Fatalf("sparse grown probe differs: %+v vs %+v", got, want)
	}
	for i := range want.Pairs {
		if want.Pairs[i] != got.Pairs[i] {
			t.Fatalf("pair %d: %+v vs %+v", i, got.Pairs[i], want.Pairs[i])
		}
	}
}

// TestJaccardUploadsStoreNoValues: a Jaccard session keeps only index sets,
// whichever door its rows came in by: a sparse upload with values (counted,
// then dropped), a dense upload, a sparse append with values and a dense
// append. (A sent values array of the wrong length is still a 400: the
// shared row table's "jaccard values count" case in
// TestAppendRowsValidationHTTP, and the scanned body below.) Omitted values
// still mean all-ones for cosine, carved from one block for the body. Every
// scanned row is a window whose capacity is its length, so an append to one
// row cannot write into its neighbour.
func TestJaccardUploadsStoreNoValues(t *testing.T) {
	srv, ts := newTestServer(t, 8)
	rowsOf := func(id string) []vec.Sparse {
		t.Helper()
		ms, release, err := srv.mgr.Acquire(id)
		if err != nil {
			t.Fatal(err)
		}
		defer release()
		return ms.Session.Dataset().Rows
	}
	create := func(body map[string]any) string {
		t.Helper()
		var info sessionInfo
		if st := call(t, "POST", ts.URL+"/v1/sessions", body, &info); st != http.StatusCreated {
			t.Fatalf("create %v: status %d", body, st)
		}
		return info.ID
	}
	weighted := []map[string]any{
		{"indices": []int32{0, 2, 5}, "values": []float64{2, 0.5, 3}},
		{"indices": []int32{1, 2}, "values": []float64{1, 4}},
	}
	sparse := create(map[string]any{"measure": "jaccard", "sparse": map[string]any{"dim": 8, "rows": weighted}})
	dense := create(map[string]any{"measure": "jaccard", "dense": [][]float64{{2, 0, 1, 0}, {0, 3, 1, 0}}})
	for id, body := range map[string]map[string]any{
		sparse: {"sparse": weighted},
		dense:  {"dense": [][]float64{{0, 0, 7, 0.5}}},
	} {
		if st := call(t, "POST", ts.URL+"/v1/sessions/"+id+"/rows", body, nil); st != http.StatusOK {
			t.Fatalf("append %v: status %d", body, st)
		}
	}
	for _, id := range []string{sparse, dense} {
		rows := rowsOf(id)
		if len(rows) < 3 {
			t.Fatalf("session %s: %d rows after the append", id, len(rows))
		}
		for i, row := range rows {
			if row.Values != nil || len(row.Indices) == 0 {
				t.Errorf("session %s row %d: %+v, want an index set without values", id, i, row)
			}
		}
	}
	if got := rowsOf(sparse)[0].Indices; !slices.Equal(got, []int32{0, 2, 5}) {
		t.Errorf("sparse row 0 indices %v, want [0 2 5]", got)
	}
	var env errorEnvelope
	body := map[string]any{"sparse": []map[string]any{weighted[0], {"indices": []int32{0, 1}, "values": []float64{1}}}}
	if st := call(t, "POST", ts.URL+"/v1/sessions/"+sparse+"/rows", body, &env); st != http.StatusBadRequest ||
		env.Error.Message != "sparse row 1: 2 indices but 1 values" {
		t.Errorf("jaccard append with a values count mismatch: status %d, error %+v", st, env.Error)
	}

	cosine := create(map[string]any{"sparse": map[string]any{"dim": 8, "rows": []map[string]any{
		{"indices": []int32{0, 1, 2, 3}}, {"indices": []int32{4}}, {"indices": []int32{5, 6}, "values": []float64{3, 4}},
	}}})
	rows := rowsOf(cosine)
	if !slices.Equal(rows[0].Values, []float64{0.5, 0.5, 0.5, 0.5}) || !slices.Equal(rows[1].Values, []float64{1}) ||
		!slices.Equal(rows[2].Values, []float64{0.6, 0.8}) {
		t.Errorf("cosine rows: %+v, want all-ones normalized where values were omitted", rows)
	}
	if unsafe.Add(unsafe.Pointer(&rows[0].Values[0]), 4*8) != unsafe.Pointer(&rows[1].Values[0]) {
		t.Error("cosine rows with omitted values: all-ones not carved from one block")
	}
	for _, id := range []string{sparse, cosine} {
		for i, row := range rowsOf(id) {
			if cap(row.Indices) != len(row.Indices) || cap(row.Values) != len(row.Values) {
				t.Errorf("session %s row %d: cap %d/%d over len %d/%d", id, i,
					cap(row.Indices), cap(row.Values), len(row.Indices), len(row.Values))
			}
		}
	}
}

// TestAppendRowsValidationHTTP: every malformed append is a 400 with the
// session unchanged; an unknown session is a 404.
func TestAppendRowsValidationHTTP(t *testing.T) {
	_, ts := newTestServer(t, 4)
	info := createDense(t, ts.URL, ingestRows(0, 10))
	url := ts.URL + "/v1/sessions/" + info.ID + "/rows"

	for name, body := range map[string]map[string]any{
		"both shapes":    {"dense": [][]float64{{1}}, "sparse": []map[string]any{{"indices": []int32{0}}}},
		"neither shape":  {},
		"empty dense":    {"dense": [][]float64{}},
		"row too wide":   {"dense": [][]float64{{1, 2, 3, 4, 5, 6, 7, 8, 9}}},
		"bad index":      {"sparse": []map[string]any{{"indices": []int32{99}}}},
		"not increasing": {"sparse": []map[string]any{{"indices": []int32{3, 1}}}},
		"ragged values":  {"sparse": []map[string]any{{"indices": []int32{0, 1}, "values": []float64{1}}}},
	} {
		var env errorEnvelope
		if st := call(t, "POST", url, body, &env); st != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, st)
		} else if env.Error.Code != "bad_request" {
			t.Errorf("%s: code %q", name, env.Error.Code)
		}
	}
	// One validator serves both sparse upload paths: the same bad row, at the
	// same position, is refused with the same message by create and append —
	// these rows, and every row of the shared row table, each under its own
	// measure; the table's well-formed rows are taken by both.
	good := map[string]any{"indices": []int32{0, 2}}
	var jaccard sessionInfo
	if st := call(t, "POST", ts.URL+"/v1/sessions", map[string]any{"measure": "jaccard",
		"sparse": map[string]any{"dim": 8, "rows": []map[string]any{good, good}}}, &jaccard); st != http.StatusCreated {
		t.Fatalf("create jaccard session: status %d", st)
	}
	appendURL := map[vec.Measure]string{vec.CosineSim: url, vec.JaccardSim: ts.URL + "/v1/sessions/" + jaccard.ID + "/rows"}
	type rowCase struct {
		name    string
		measure vec.Measure
		row     map[string]any
		want    string // "" for a row both paths take
	}
	cases := []rowCase{
		{"index past dim", vec.CosineSim, map[string]any{"indices": []int32{1, 8}}, "sparse row 1: index 8 out of range [0, 8)"},
		{"negative index", vec.CosineSim, map[string]any{"indices": []int32{-1}}, "sparse row 1: index -1 out of range [0, 8)"},
		{"repeated index", vec.CosineSim, map[string]any{"indices": []int32{2, 2}}, "sparse row 1: indices must be strictly increasing"},
		{"decreasing", vec.CosineSim, map[string]any{"indices": []int32{3, 1}, "values": []float64{1, 1}}, "sparse row 1: indices must be strictly increasing"},
		{"too few values", vec.CosineSim, map[string]any{"indices": []int32{0, 1}, "values": []float64{1}}, "sparse row 1: 2 indices but 1 values"},
		{"values without indices", vec.CosineSim, map[string]any{"indices": []int32{}, "values": []float64{1}}, "sparse row 1: 0 indices but 1 values"},
	}
	for _, tc := range vectest.Rows {
		// A nil Values goes on the wire as an omitted field, except for a
		// cosine row: there an omitted field means all-ones, and the upload
		// that carries no value is an empty array.
		row := map[string]any{"indices": tc.Row.Indices}
		if tc.Row.Values != nil {
			row["values"] = tc.Row.Values
		} else if tc.Measure == vec.CosineSim {
			row["values"] = []float64{}
		}
		want := ""
		if tc.Err != "" {
			want = "sparse row 1: " + tc.Err
		}
		cases = append(cases, rowCase{"table: " + tc.Name, tc.Measure, row, want})
	}
	for _, tc := range cases {
		rows := []map[string]any{good, tc.row}
		for path, req := range map[string]struct {
			url  string
			body map[string]any
		}{
			"create": {ts.URL + "/v1/sessions", map[string]any{"measure": tc.measure.String(), "sparse": map[string]any{"dim": 8, "rows": rows}}},
			"append": {appendURL[tc.measure], map[string]any{"sparse": rows}},
		} {
			var env errorEnvelope
			st := call(t, "POST", req.url, req.body, &env)
			if tc.want == "" {
				if st != http.StatusCreated && st != http.StatusOK {
					t.Errorf("%s via %s: status %d, error %+v, want the rows taken", tc.name, path, st, env.Error)
				}
			} else if st != http.StatusBadRequest || env.Error.Code != "bad_request" || env.Error.Message != tc.want {
				t.Errorf("%s via %s: status %d, error %+v, want 400 bad_request %q", tc.name, path, st, env.Error, tc.want)
			}
		}
	}
	var env errorEnvelope
	if st := call(t, "POST", ts.URL+"/v1/sessions/nope/rows",
		map[string]any{"dense": [][]float64{{1}}}, &env); st != http.StatusNotFound {
		t.Errorf("unknown session: status %d, want 404", st)
	}
	var after sessionInfo
	if st := call(t, "GET", ts.URL+"/v1/sessions/"+info.ID, nil, &after); st != 200 || after.Rows != 10 {
		t.Fatalf("failed appends changed the session: status %d rows %d", st, after.Rows)
	}
}

// TestUploadRefusalParityHTTP: create and append bodies are scanned when
// they have the canonical shape and decoded by encoding/json otherwise, and
// every refusal still comes from encoding/json and the one row step. Each
// case pins the status and the exact error body the daemon answered before
// the scanner existed, on both endpoints; a valid body in a shape the
// scanner declines builds the same session as its canonical twin.
func TestUploadRefusalParityHTTP(t *testing.T) {
	srv := New(Config{Capacity: 8, RequestTimeout: 30 * time.Second, MaxBodyBytes: 512})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	target := createDense(t, ts.URL, ingestRows(0, 10))
	post := func(url, body string) (int, string) {
		t.Helper()
		resp, err := http.Post(url, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(b)
	}

	const (
		eof      = `{"error":{"code":"bad_request","message":"invalid JSON body: unexpected EOF"}}`
		bad      = `{"error":{"code":"bad_request","message":"invalid JSON body: invalid character 'x' looking for beginning of value"}}`
		extra    = `{"error":{"code":"bad_request","message":"invalid JSON body: json: unknown field \"extra\""}}`
		weights  = `{"error":{"code":"bad_request","message":"invalid JSON body: json: unknown field \"weights\""}}`
		trailing = `{"error":{"code":"bad_request","message":"trailing data after JSON body"}}`
		tooLarge = `{"error":{"code":"too_large","message":"request body exceeds the 512-byte limit"}}`
		twoRows  = `{"error":{"code":"bad_request","message":"sparse upload needs dim in [1, 4194304] and at least 2 rows"}}`
		outside  = `{"error":{"code":"bad_request","message":"sparse row 1: index 8 out of range [0, 8)"}}`
		unsorted = `{"error":{"code":"bad_request","message":"sparse row 1: indices must be strictly increasing"}}`
		count    = `{"error":{"code":"bad_request","message":"sparse row 1: 2 indices but 1 values"}}`
	)
	type want struct {
		status int
		body   string // the error body without its newline; "" for a 2xx
	}
	many := `{"indices":[0]}` + strings.Repeat(`,{"indices":[0]}`, 40)
	for _, tc := range []struct {
		name                   string
		create, append         string
		createWant, appendWant want
	}{
		{"malformed", `{"sparse":{"dim":8,"rows":[{"indices":[0]}`, `{"sparse":[{"indices":[0]}`,
			want{400, eof}, want{400, eof}},
		{"malformed past the cap", `{"dense":[[1,x]]}` + strings.Repeat(" ", 600), `{"dense":[[1,x]]}` + strings.Repeat(" ", 600),
			want{400, bad}, want{400, bad}},
		{"unknown field", `{"dense":[[1],[2]],"extra":1}`, `{"dense":[[1]],"extra":1}`,
			want{400, extra}, want{400, extra}},
		{"unknown row field", `{"sparse":{"dim":8,"rows":[{"indices":[0]},{"indices":[1],"weights":[1]}]}}`, `{"sparse":[{"indices":[0]},{"indices":[1],"weights":[1]}]}`,
			want{400, weights}, want{400, weights}},
		{"trailing data", `{"dense":[[1],[2]]} {}`, `{"dense":[[1]]} {}`,
			want{400, trailing}, want{400, trailing}},
		{"over the cap", `{"dense":[[1],[2]],"name":"` + strings.Repeat("a", 600) + `"}`, `{"sparse":[` + many + `]}`,
			want{413, tooLarge}, want{413, tooLarge}},
		{"dense and sparse", `{"dense":[[1],[2]],"sparse":{"dim":8,"rows":[{"indices":[0]},{"indices":[1]}]}}`, `{"dense":[[1]],"sparse":[{"indices":[0]}]}`,
			want{400, `{"error":{"code":"bad_request","message":"exactly one of dataset, dense, or sparse must be set (got 2)"}}`},
			want{400, `{"error":{"code":"bad_request","message":"exactly one of dense or sparse must be set"}}`}},
		{"no rows", `{"sparse":{"dim":8,"rows":[]}}`, `{"sparse":[]}`,
			want{400, twoRows}, want{400, `{"error":{"code":"bad_request","message":"no rows to append"}}`}},
		{"one row", `{"sparse":{"dim":8,"rows":[{"indices":[0]}]}}`, `{"sparse":[{"indices":[0]}]}`,
			want{400, twoRows}, want{200, ""}},
		{"index out of range", `{"sparse":{"dim":8,"rows":[{"indices":[0]},{"indices":[1,8]}]}}`, `{"sparse":[{"indices":[0]},{"indices":[1,8]}]}`,
			want{400, outside}, want{400, outside}},
		{"index past int32", `{"sparse":{"dim":8,"rows":[{"indices":[0]},{"indices":[2147483648]}]}}`, `{"sparse":[{"indices":[0]},{"indices":[2147483648]}]}`,
			want{400, `{"error":{"code":"bad_request","message":"invalid JSON body: json: cannot unmarshal number 2147483648 into Go struct field sparseRow.sparse.rows.indices of type int32"}}`},
			want{400, `{"error":{"code":"bad_request","message":"invalid JSON body: json: cannot unmarshal number 2147483648 into Go struct field sparseRow.sparse.indices of type int32"}}`}},
		{"unsorted indices", `{"sparse":{"dim":8,"rows":[{"indices":[0]},{"indices":[3,1]}]}}`, `{"sparse":[{"indices":[0]},{"indices":[3,1]}]}`,
			want{400, unsorted}, want{400, unsorted}},
		{"values count", `{"sparse":{"dim":8,"rows":[{"indices":[0]},{"indices":[0,1],"values":[1]}]}}`, `{"sparse":[{"indices":[0]},{"indices":[0,1],"values":[1]}]}`,
			want{400, count}, want{400, count}},
	} {
		for path, c := range map[string]struct {
			url, body string
			want      want
		}{
			"create": {ts.URL + "/v1/sessions", tc.create, tc.createWant},
			"append": {ts.URL + "/v1/sessions/" + target.ID + "/rows", tc.append, tc.appendWant},
		} {
			st, body := post(c.url, c.body)
			if st != c.want.status || (c.want.body != "" && body != c.want.body+"\n") {
				t.Errorf("%s via %s: %d %s, want %d %s", tc.name, path, st, body, c.want.status, c.want.body)
			}
		}
	}
	if n := srv.mgr.Len(); n != 1 {
		t.Errorf("refused creates admitted sessions: %d resident, want 1", n)
	}

	// Valid bodies in other shapes build what their canonical twins build:
	// case-variant keys and an escaped name, which the scanner declines, and
	// a -0 index, which both decoders read as 0.
	rowsOf := func(id string) *vec.Dataset {
		t.Helper()
		ms, release, err := srv.mgr.Acquire(id)
		if err != nil {
			t.Fatal(err)
		}
		defer release()
		return ms.Session.Dataset()
	}
	for _, tc := range []struct {
		name                                               string
		canonical, variant, appendCanonical, appendVariant string
		scanned                                            bool // the variants take the scanner too
	}{
		{"case-variant keys",
			`{"measure":"cosine","sparse":{"dim":8,"rows":[{"indices":[0,2],"values":[1,2]},{"indices":[1]}]}}`,
			`{"Measure":"cosine","Sparse":{"DIM":8,"rows":[{"Indices":[0,2],"Values":[1,2]},{"indices":[1]}]}}`,
			`{"sparse":[{"indices":[3],"values":[2]}]}`, `{"Sparse":[{"indices":[3],"VALUES":[2]}]}`, false},
		{"escaped name",
			`{"name":"AB/c","measure":"jaccard","sparse":{"dim":8,"rows":[{"indices":[0,2]},{"indices":[1]}]}}`,
			`{"name":"AB\/c","measure":"jaccard","sparse":{"dim":8,"rows":[{"indices":[0,2]},{"indices":[1]}]}}`,
			`{"sparse":[{"indices":[3,4]}]}`, `{"sparse":[{"indices":[3,4]}],"Dense":null}`, false},
		{"-0 index",
			`{"sparse":{"dim":8,"rows":[{"indices":[0,2]},{"indices":[0]}]}}`,
			`{"sparse":{"dim":8,"rows":[{"indices":[-0,2]},{"indices":[-0]}]}}`,
			`{"sparse":[{"indices":[0,7]}]}`, `{"sparse":[{"indices":[-0,7]}]}`, true},
	} {
		if !scans(true, []byte(tc.canonical)) || !scans(false, []byte(tc.appendCanonical)) ||
			scans(true, []byte(tc.variant)) != tc.scanned || scans(false, []byte(tc.appendVariant)) != tc.scanned {
			t.Fatalf("%s: the canonical bodies must take the scanner, and the variants only if scanned", tc.name)
		}
		var sets [2]*vec.Dataset
		for k, body := range []string{tc.canonical, tc.variant} {
			st, resp := post(ts.URL+"/v1/sessions", body)
			var info sessionInfo
			if err := json.Unmarshal([]byte(resp), &info); st != http.StatusCreated || err != nil {
				t.Fatalf("%s: create %s: %d %s", tc.name, body, st, resp)
			}
			app := []string{tc.appendCanonical, tc.appendVariant}[k]
			if st, resp := post(ts.URL+"/v1/sessions/"+info.ID+"/rows", app); st != http.StatusOK {
				t.Fatalf("%s: append %s: %d %s", tc.name, app, st, resp)
			}
			sets[k] = rowsOf(info.ID)
		}
		a, b := sets[0], sets[1]
		if a.Name != b.Name || a.Dim != b.Dim || a.Measure != b.Measure || !reflect.DeepEqual(a.Rows, b.Rows) {
			t.Errorf("%s: %+v, want its canonical twin's %+v", tc.name, b, a)
		}
	}
}

// TestUploadDimensionCapped: an upload's dimension must lie in
// [1, vec.MaxDim]. Past the cap it is refused before anything
// dimension-sized is built — the sparse upload's declared dim over HTTP,
// and a dense row's length at the resolver, which the JSON body would
// otherwise have to carry. Dense rows that are all empty declare dimension
// 0, which no snapshot can carry, and are refused too.
func TestUploadDimensionCapped(t *testing.T) {
	srv, ts := newTestServer(t, 4)
	two := []vec.Sparse{vectest.Good, vectest.Good}
	var env errorEnvelope
	st := call(t, "POST", ts.URL+"/v1/sessions", map[string]any{"sparse": map[string]any{"dim": vec.MaxDim + 1, "rows": two}}, &env)
	if st != http.StatusBadRequest || env.Error.Code != "bad_request" {
		t.Fatalf("sparse dim past the cap: status %d, error %+v, want 400 bad_request", st, env.Error)
	}
	st = call(t, "POST", ts.URL+"/v1/sessions", map[string]any{"dense": [][]float64{{}, {}}}, &env)
	if st != http.StatusBadRequest || env.Error.Code != "bad_request" {
		t.Fatalf("dense rows with no entries: status %d, error %+v, want 400 bad_request", st, env.Error)
	}
	if srv.mgr.Len() != 0 {
		t.Fatalf("a refused upload admitted %d sessions", srv.mgr.Len())
	}
	_, err := srv.resolveDataset(&createSessionRequest{Dense: [][]float64{{1}, make([]float64, vec.MaxDim+1)}})
	if err == nil || !strings.Contains(err.Error(), "dense row 1") {
		t.Fatalf("dense row past the cap: err = %v", err)
	}
}

// TestCreateParamsValidationHTTP: engine parameters are checked before a
// cache is built from them. Each body used to be a recovered panic (500), a
// session that could never be snapshotted (maxHashes 0), or an admission
// held for seconds building a quadratic schedule (maxHashes 4096, step 1);
// each is now a prompt 400 naming the field, and nothing is admitted.
func TestCreateParamsValidationHTTP(t *testing.T) {
	_, ts := newTestServer(t, 4)
	for _, tc := range []struct {
		params map[string]any
		field  string
	}{
		{map[string]any{"step": 0}, "Step"},
		{map[string]any{"step": -1}, "Step"},
		{map[string]any{"step": 512}, "Step"},
		{map[string]any{"maxHashes": 0}, "MaxHashes"},
		{map[string]any{"maxHashes": -5}, "MaxHashes"},
		{map[string]any{"maxHashes": 4096, "step": 1}, "schedule"},
		{map[string]any{"epsilon": -0.1}, "Epsilon"},
		{map[string]any{"delta": 2}, "Delta"},
		{map[string]any{"gamma": 1.5}, "Gamma"},
	} {
		body := map[string]any{"dense": ingestRows(0, 2), "params": tc.params}
		var env errorEnvelope
		start := time.Now()
		st := call(t, "POST", ts.URL+"/v1/sessions", body, &env)
		if st != http.StatusBadRequest || env.Error.Code != "bad_request" || !strings.Contains(env.Error.Message, tc.field) {
			t.Errorf("params %v: status %d, error %+v, want 400 bad_request naming %s", tc.params, st, env.Error, tc.field)
		}
		if d := time.Since(start); d > time.Second {
			t.Errorf("params %v: refused after %v", tc.params, d)
		}
	}
	var list struct {
		Sessions []sessionInfo `json:"sessions"`
	}
	if st := call(t, "GET", ts.URL+"/v1/sessions", nil, &list); st != 200 || len(list.Sessions) != 0 {
		t.Errorf("refused creates left %d sessions (status %d)", len(list.Sessions), st)
	}
	// In-range overrides still create, and the session can be snapshotted.
	var info sessionInfo
	if st := call(t, "POST", ts.URL+"/v1/sessions", map[string]any{
		"dense":  ingestRows(0, 4),
		"params": map[string]any{"maxHashes": 100, "step": 30, "epsilon": 0, "gamma": 1},
	}, &info); st != http.StatusCreated {
		t.Fatalf("in-range params: status %d", st)
	}
	resp, err := http.Post(ts.URL+"/v1/sessions/"+info.ID+"/snapshot", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("snapshot of a session with overridden params: status %d", resp.StatusCode)
	}
}

// TestAppendRowsSurvivesPersistence: a grown session's snapshot embeds the
// grown dataset, so persist -> warm start on a fresh daemon reproduces the
// grown session (rows, probes, and results intact).
func TestAppendRowsSurvivesPersistence(t *testing.T) {
	dir := t.TempDir()
	srv1 := New(Config{Capacity: 4, RequestTimeout: 30 * time.Second, StateDir: dir})
	ts1 := httptest.NewServer(srv1.Handler())
	info := createDense(t, ts1.URL, ingestRows(0, 30))
	var ar appendRowsResponse
	if st := call(t, "POST", ts1.URL+"/v1/sessions/"+info.ID+"/rows",
		map[string]any{"dense": ingestRows(30, 40)}, &ar); st != http.StatusOK {
		t.Fatalf("append: status %d", st)
	}
	probePairs(t, ts1.URL, info.ID, 0.8) // recorded in the snapshot below
	var persisted map[string]any
	if st := call(t, "POST", ts1.URL+"/v1/sessions/"+info.ID+"/snapshot?persist=1", nil, &persisted); st != 200 {
		t.Fatalf("persist: status %d", st)
	}
	// A warm re-probe from the snapshotted state. The revived server's probe
	// resumes from the same state, so it must match this, not the cold probe
	// (resumed evidence can carry a pair past a pruning checkpoint that the
	// cold pass stopped at).
	want := probePairs(t, ts1.URL, info.ID, 0.8)
	ts1.Close()

	srv2 := New(Config{Capacity: 4, RequestTimeout: 30 * time.Second, StateDir: dir})
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	var revived sessionInfo
	if st := call(t, "GET", ts2.URL+"/v1/sessions/"+info.ID, nil, &revived); st != 200 {
		t.Fatalf("warm start lost the session: status %d", st)
	}
	if revived.Rows != 40 || revived.Probes != 1 {
		t.Fatalf("revived session: %d rows, %d probes; want 40 rows, 1 probe", revived.Rows, revived.Probes)
	}
	// Re-probe at the same threshold: warm cache, identical pair list.
	got := probePairs(t, ts2.URL, info.ID, 0.8)
	if got.PairCount != want.PairCount || len(got.Pairs) != len(want.Pairs) {
		t.Fatalf("revived probe differs: %+v vs %+v", got, want)
	}
	for i := range want.Pairs {
		if want.Pairs[i] != got.Pairs[i] {
			t.Fatalf("pair %d: %+v vs %+v", i, got.Pairs[i], want.Pairs[i])
		}
	}
	// And the revived session keeps growing.
	if st := call(t, "POST", ts2.URL+"/v1/sessions/"+info.ID+"/rows",
		map[string]any{"dense": ingestRows(40, 45)}, &ar); st != http.StatusOK || ar.Rows != 45 {
		t.Fatalf("append after revive: status %d resp %+v", st, ar)
	}
}
