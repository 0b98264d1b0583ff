package server

import (
	"bytes"
	"fmt"
	"math"
	"net/http/httptest"
	"reflect"
	"testing"

	"plasmahd/bench/gen"
)

// rowBodySeeds are create and append bodies around the canonical shape,
// each marked with whether the scanner takes it or declines it to
// encoding/json.
var rowBodySeeds = []struct {
	create, take bool
	body         string
}{
	{true, true, `{"name":"up","measure":"cosine","seed":7,"sparse":{"dim":8,"rows":[{"indices":[0,3],"values":[1,2.5]},{"indices":[1]}]}}`},
	{true, true, `{"measure":"cosine","sparse":{"dim":4,"rows":[{"indices":[1,2],"values":[]}]}}`},
	{true, true, `{"measure":"cosine","sparse":{"dim":4,"rows":[{"indices":[],"values":[]},{"indices":[1],"values":null}]}}`},
	{true, true, `{"measure":"jaccard","sparse":{"dim":4,"rows":[{"indices":null},{"values":[1]}]}}`},
	{true, true, `{"sparse":{"dim":4,"rows":[{"indices":[-0,1]}]}}`},
	{true, false, `{"sparse":{"dim":4,"rows":[{"indices":[01]}]}}`},
	{true, false, `{"sparse":{"dim":4,"rows":[{"indices":[1e2]}]}}`},
	{true, false, `{"sparse":{"dim":4,"rows":[{"indices":[1.0]}]}}`},
	{true, false, `{"sparse":{"dim":4,"rows":[{"indices":[2147483648]}]}}`},
	{true, false, `{"sparse":{"dim":4,"rows":[{"indices":[-2147483649]}]}}`},
	{true, false, `{"sparse":{"dim":4,"rows":[{"Indices":[1]}]}}`},
	{true, false, `{"SPARSE":{"dim":4,"rows":[{"indices":[1]}]}}`},
	{true, false, `{"name":"a","name":"b","dense":[[1]]}`},
	{true, false, `{"sparse":{"dim":4,"dim":5,"rows":[]}}`},
	{true, false, `{"sparse":{"dim":4,"rows":[{"indices":[1],"indices":[2]}]}}`},
	{true, false, `{"name":"caf\u00e9","dense":[[1],[2]]}`},
	{true, false, "{\"name\":\"caf\xc3\xa9\",\"dense\":[[1],[2]]}"},
	{true, true, " { \"name\" : \"ws\" ,\t\"seed\" : -3 ,\n\"sparse\" : { \"dim\" : 4 , \"rows\" : [ { \"indices\" : [ 0 , 2 ] , \"values\" : [ 1 , -0 ] } , { \"indices\" : [ ] } ] } }\r\n"},
	{true, false, `{"dense":[[1,2]]}x`},
	{true, false, `{"dense":[[1,2]]}{}`},
	{true, true, `{"sparse":{"dim":4,"rows":[]}}`},
	{true, true, `{"dense":[],"sparse":{}}`},
	{true, true, `{"dense":[[0.1,-2.5e-3,1E+2,-0,0e0,123456789012345678,-7]]}`},
	{true, false, `{"dense":[[1e400]]}`},
	{true, false, `{"dense":[[1,],[2]]}`},
	{true, true, `{"params":{"epsilon":0.05,"workers":2},"dense":[[1],[2]]}`},
	{true, true, `{"params":{"Epsilon":0.05},"dense":[[1],[2]]}`},
	{true, false, `{"params":{"nope":1},"dense":[[1],[2]]}`},
	{true, false, `{"params":{"lite":"}"},"dense":[[1],[2]]}`},
	{true, false, `{"params":null,"dense":[[1],[2]]}`},
	{true, false, `{"dataset":{"source":"wine"},"seed":1}`},
	{true, false, `{"seed":9223372036854775808,"dense":[[1]]}`},
	{true, true, `{}`},
	{true, false, ``},
	{true, false, `null`},
	{false, true, `{"sparse":[{"indices":[0,3],"values":[1,2]},{"indices":[2]}]}`},
	{false, true, `{"dense":[[1,0,0.5],[]]}`},
	{false, true, `{"dense":[],"sparse":[]}`},
	{false, true, `{"sparse":[{"indices":[3,1],"values":[1,1]}]}`},
	{false, true, `{"sparse":[{"indices":[1],"values":[]}]} `},
	{false, false, `{"sparse":[{"indices":[1]}],"Dense":[[1]]}`},
	{false, false, `{"sparse":[null]}`},
	{false, false, `{"sparse":[{"indices":[1]}]`},
}

// FuzzRowBodies: for any create or append body the scanner either declines
// or decodes exactly what encoding/json (unknown fields and trailing data
// refused) decodes: the same rows with the same value bits, the same nil or
// empty state of every slice, the same scalars and params. It never takes
// a body encoding/json refuses, and every row it returns is a window whose
// capacity is its length.
func FuzzRowBodies(f *testing.F) {
	for _, s := range rowBodySeeds {
		f.Add(s.create, []byte(s.body))
	}
	f.Fuzz(func(t *testing.T, create bool, body []byte) {
		var err error
		if create {
			var got, want createSessionRequest
			if !scanCreate(body, &got) {
				return
			}
			if err = decodeFrom(bytes.NewReader(body), &want); err == nil {
				err = sameCreate(got, want)
			}
		} else {
			var got, want appendRowsRequest
			if !scanAppend(body, &got) {
				return
			}
			if err = decodeFrom(bytes.NewReader(body), &want); err == nil {
				err = sameAppend(got, want)
			}
		}
		if err != nil {
			t.Fatalf("scanner took %q: %v", body, err)
		}
	})
}

// TestRowScanTakesCanonicalBodies: the bodies clients send — the
// benchmark's uploads and appends, a create with params — take the scanner,
// or FuzzRowBodies would compare nothing; the others are declined.
func TestRowScanTakesCanonicalBodies(t *testing.T) {
	dense := gen.ZipfCosine{Rows: 40, Dim: 600, MinNnz: 5, MaxNnz: 9, ZipfS: 1.25,
		Communities: 4, Cohesion: 0.85, BlockZipfS: 1.3}.Generate(1)
	long := gen.LongsetJaccard{Rows: 40, Dim: 10_000, MinNnz: 10, MaxNnz: 20,
		GroupFrac: 0.3, GroupMin: 2, GroupMax: 6, KeepLo: 0.85, KeepHi: 0.98}.Generate(1)
	for _, tc := range []struct {
		create bool
		body   []byte
	}{
		{true, dense.CreateBody(30, 1)},
		{true, long.CreateBody(30, -5)},
		{false, dense.AppendBody(30, 40)},
		{false, long.AppendBody(30, 40)},
	} {
		if !scans(tc.create, tc.body) {
			t.Errorf("scanner declined %.120q", tc.body)
		}
	}
	for _, s := range rowBodySeeds {
		if got := scans(s.create, []byte(s.body)); got != s.take {
			t.Errorf("scanner took %q: %t, want %t", s.body, got, s.take)
		}
	}
}

func scans(create bool, body []byte) bool {
	if create {
		return scanCreate(body, new(createSessionRequest))
	}
	return scanAppend(body, new(appendRowsRequest))
}

func sameCreate(got, want createSessionRequest) error {
	switch {
	case got.Name != want.Name, got.Measure != want.Measure, got.Seed != want.Seed:
		return fmt.Errorf("scalars %q %q %d, want %q %q %d", got.Name, got.Measure, got.Seed, want.Name, want.Measure, want.Seed)
	case got.Dataset != nil || want.Dataset != nil:
		return fmt.Errorf("dataset %+v, want %+v", got.Dataset, want.Dataset)
	case !reflect.DeepEqual(got.Params, want.Params):
		return fmt.Errorf("params %+v, want %+v", got.Params, want.Params)
	case (got.Sparse == nil) != (want.Sparse == nil):
		return fmt.Errorf("sparse %v, want %v", got.Sparse, want.Sparse)
	}
	if err := sameDense(got.Dense, want.Dense); err != nil {
		return err
	}
	if got.Sparse == nil {
		return nil
	}
	if got.Sparse.Dim != want.Sparse.Dim {
		return fmt.Errorf("dim %d, want %d", got.Sparse.Dim, want.Sparse.Dim)
	}
	return sameSparse(got.Sparse.Rows, want.Sparse.Rows)
}

func sameAppend(got, want appendRowsRequest) error {
	if err := sameDense(got.Dense, want.Dense); err != nil {
		return err
	}
	return sameSparse(got.Sparse, want.Sparse)
}

func sameDense(got, want [][]float64) error {
	if (got == nil) != (want == nil) || len(got) != len(want) {
		return fmt.Errorf("dense %v, want %v", got, want)
	}
	for i := range got {
		if err := sameBlock("dense row", i, got[i], want[i]); err != nil {
			return err
		}
	}
	return nil
}

func sameSparse(got, want []sparseRow) error {
	if (got == nil) != (want == nil) || len(got) != len(want) {
		return fmt.Errorf("sparse rows %v, want %v", got, want)
	}
	for i := range got {
		if err := sameBlock("indices of row", i, got[i].Indices, want[i].Indices); err != nil {
			return err
		}
		if err := sameBlock("values of row", i, got[i].Values, want[i].Values); err != nil {
			return err
		}
	}
	return nil
}

// sameBlock compares two slices element by element, floats by their bits,
// and their nil states; got must also be a window whose capacity is its
// length.
func sameBlock[T int32 | float64](what string, i int, got, want []T) error {
	if (got == nil) != (want == nil) || len(got) != len(want) {
		return fmt.Errorf("%s %d: %v (nil %t), want %v (nil %t)", what, i, got, got == nil, want, want == nil)
	}
	if cap(got) != len(got) {
		return fmt.Errorf("%s %d: cap %d over len %d", what, i, cap(got), len(got))
	}
	for k := range got {
		if math.Float64bits(float64(got[k])) != math.Float64bits(float64(want[k])) {
			return fmt.Errorf("%s %d entry %d: %v, want %v", what, i, k, got[k], want[k])
		}
	}
	return nil
}

// BenchmarkDecodeCreateBody: the decode step of onboard-long's upload, 2 500
// Jaccard rows over 1.25 M dimensions (≈ 2 MB), as the create handler runs it.
func BenchmarkDecodeCreateBody(b *testing.B) {
	d := gen.LongsetJaccard{Rows: 2500, Dim: 1_250_000, MinNnz: 100, MaxNnz: 120,
		GroupFrac: 0.3, GroupMin: 2, GroupMax: 6, KeepLo: 0.85, KeepHi: 0.98}.Generate(1)
	benchDecode(b, d.CreateBody(len(d.Rows), 1), scanCreate)
}

// BenchmarkDecodeAppendBody: the decode step of a 50-row explore-dense
// append (cosine rows with values), as the append handler runs it.
func BenchmarkDecodeAppendBody(b *testing.B) {
	d := gen.ZipfCosine{Rows: 500, Dim: 6000, MinNnz: 30, MaxNnz: 60, ZipfS: 1.25,
		Communities: 40, Cohesion: 0.85, BlockZipfS: 1.3}.Generate(1)
	benchDecode(b, d.AppendBody(0, 50), scanAppend)
}

func benchDecode[T any](b *testing.B, body []byte, scan func([]byte, *T) bool) {
	if !scan(body, new(T)) {
		b.Fatal("the scanner declined the body")
	}
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	for b.Loop() {
		var req T
		if err := decodeUpload(httptest.NewRequest("POST", "/", bytes.NewReader(body)), &req, scan); err != nil {
			b.Fatal(err)
		}
	}
}
