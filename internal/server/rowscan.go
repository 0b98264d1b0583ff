package server

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"strconv"
)

// Upload decode. The bodies that carry rows — create's dense and sparse
// uploads and append's batch — are read whole and scanned in one pass. The
// scanner appends every index of a body to one indices block and every
// value to one values block; a row is a full-slice window into them
// (cap == len, so no row can grow into its neighbour).
//
// encoding/json stays the definition of what these endpoints accept and the
// only source of their refusals. The scanner takes only the canonical
// shape: exact-case known keys, each at most once; plain decimal integers
// for indices, dim and seed; escape-free ASCII strings. On any other input
// it declines, and decodeJSON's path decodes or refuses the same bytes. An
// accepted body decodes to exactly what encoding/json would make of it
// (FuzzRowBodies), so which path ran shows only in the time it took.

const (
	// bodyHint caps how far a declared Content-Length presizes the body
	// buffer; past it the buffer grows as the bytes arrive.
	bodyHint = 4 << 20
	// blockHint caps the entries a block reserves from the body's comma
	// count before it grows by append.
	blockHint = 1 << 20
)

// decodeUpload decodes a row-carrying body into v: by scan when the body has
// the canonical shape, and otherwise by encoding/json over the same bytes,
// followed by the same terminal read error (413 past the body cap).
func decodeUpload[T any](r *http.Request, v *T, scan func([]byte, *T) bool) error {
	body, err := readBody(r)
	if err == nil && scan(body, v) {
		return nil
	}
	var rd io.Reader = bytes.NewReader(body)
	if err != nil {
		rd = io.MultiReader(rd, failReader{err})
	}
	return decodeFrom(rd, v)
}

// readBody reads a request body whole, under the cap the middleware set.
func readBody(r *http.Request) ([]byte, error) {
	var buf bytes.Buffer
	if n := r.ContentLength; n > 0 {
		buf.Grow(int(min(n, bodyHint)) + bytes.MinRead)
	}
	_, err := buf.ReadFrom(r.Body)
	return buf.Bytes(), err
}

// failReader replays the error a body read ended with.
type failReader struct{ err error }

func (f failReader) Read([]byte) (int, error) { return 0, f.err }

// scanCreate decodes a create body holding an upload; false declines it.
// A body naming a generator spec (dataset) is declined: it carries no rows.
func scanCreate(body []byte, req *createSessionRequest) bool {
	s := newRowScanner(body)
	var out createSessionRequest
	dense, sparse := noRows, noRows
	var params []byte
	ok := s.fields(createKeys, func(key string) (ok bool) {
		switch key {
		case "dense":
			dense, ok = s.rows(s.denseRow)
		case "sparse":
			out.Sparse, sparse, ok = s.upload()
		case "measure":
			out.Measure, ok = s.str()
		case "name":
			out.Name, ok = s.str()
		case "params":
			params, ok = s.object()
		case "seed":
			out.Seed, ok = s.integer(64)
		}
		return ok
	})
	if !ok || !s.end() {
		return false
	}
	if params != nil {
		// The one small object left to encoding/json, from its own span:
		// a client that tunes parameters keeps the fast path.
		out.Params = new(paramsJSON)
		dec := json.NewDecoder(bytes.NewReader(params))
		dec.DisallowUnknownFields()
		if dec.Decode(out.Params) != nil || dec.InputOffset() != int64(len(params)) {
			return false
		}
	}
	var rows []sparseRow
	out.Dense, rows = s.windows(dense, sparse)
	if out.Sparse != nil {
		out.Sparse.Rows = rows
	}
	*req = out
	return true
}

// scanAppend decodes an append body; false declines it.
func scanAppend(body []byte, req *appendRowsRequest) bool {
	s := newRowScanner(body)
	dense, sparse := noRows, noRows
	ok := s.fields(appendKeys, func(key string) (ok bool) {
		if key == "dense" {
			dense, ok = s.rows(s.denseRow)
		} else {
			sparse, ok = s.rows(s.sparseRow)
		}
		return ok
	})
	if !ok || !s.end() {
		return false
	}
	var out appendRowsRequest
	out.Dense, out.Sparse = s.windows(dense, sparse)
	*req = out
	return true
}

// The keys each object of a row body may carry, exactly as its JSON tags
// spell them.
var (
	createKeys = []string{"dense", "sparse", "measure", "name", "params", "seed"}
	appendKeys = []string{"dense", "sparse"}
	uploadKeys = []string{"dim", "rows"}
	rowKeys    = []string{"indices", "values"}
)

// rowScanner reads one body. Rows are recorded as spans while the blocks
// grow and become windows only once the blocks are final.
type rowScanner struct {
	b       []byte
	i       int
	reserve int // entries a block reserves: an upper bound on the body's numbers
	ix      []int32
	val     []float64
	spans   []rowSpan
}

// rowSpan is one row as offsets into the blocks. A negative start stands
// for an absent or null field: a nil slice, as encoding/json leaves it.
type rowSpan struct{ ix, ixEnd, val, valEnd int }

// spanRange is the spans [lo, hi) of one rows array; noRows marks an
// array the body did not carry.
type spanRange struct{ lo, hi int }

var noRows = spanRange{-1, -1}

func newRowScanner(body []byte) *rowScanner {
	return &rowScanner{b: body, reserve: bytes.Count(body, []byte{','}) + 1}
}

// ws skips JSON whitespace.
func (s *rowScanner) ws() {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ' ', '\t', '\n', '\r':
			s.i++
		default:
			return
		}
	}
}

// tok skips whitespace and consumes the next byte; 0 at the end.
func (s *rowScanner) tok() byte {
	s.ws()
	if s.i >= len(s.b) {
		return 0
	}
	s.i++
	return s.b[s.i-1]
}

// peek skips whitespace and returns the next byte without consuming it.
func (s *rowScanner) peek() byte {
	s.ws()
	if s.i >= len(s.b) {
		return 0
	}
	return s.b[s.i]
}

// end reports whether only whitespace is left.
func (s *rowScanner) end() bool {
	s.ws()
	return s.i == len(s.b)
}

// null consumes a null literal if one comes next.
func (s *rowScanner) null() bool {
	if s.peek() == 'n' && bytes.HasPrefix(s.b[s.i:], []byte("null")) {
		s.i += 4
		return true
	}
	return false
}

// raw reads an escape-free ASCII string and returns its bytes.
func (s *rowScanner) raw() ([]byte, bool) {
	if s.tok() != '"' {
		return nil, false
	}
	start := s.i
	for s.i < len(s.b) {
		c := s.b[s.i]
		s.i++
		if c == '"' {
			return s.b[start : s.i-1], true
		}
		if c < 0x20 || c >= 0x80 || c == '\\' {
			return nil, false
		}
	}
	return nil, false
}

func (s *rowScanner) str() (string, bool) {
	b, ok := s.raw()
	return string(b), ok
}

// fields walks an object whose keys are among keys, each at most once:
// for each member it reads the key and the colon and calls field with the
// key, which reads the value.
func (s *rowScanner) fields(keys []string, field func(key string) bool) bool {
	if s.tok() != '{' {
		return false
	}
	if s.peek() == '}' {
		s.i++
		return true
	}
	var seen uint
	for {
		raw, ok := s.raw()
		if !ok || s.tok() != ':' {
			return false
		}
		k := 0
		for k < len(keys) && keys[k] != string(raw) {
			k++
		}
		if k == len(keys) || seen&(1<<k) != 0 || !field(keys[k]) {
			return false
		}
		seen |= 1 << k
		switch s.tok() {
		case ',':
		case '}':
			return true
		default:
			return false
		}
	}
}

// array reads an array, calling elem for each element.
func (s *rowScanner) array(elem func() bool) bool {
	if s.tok() != '[' {
		return false
	}
	if s.peek() == ']' {
		s.i++
		return true
	}
	for {
		s.ws()
		if !elem() {
			return false
		}
		switch s.tok() {
		case ',':
		case ']':
			return true
		default:
			return false
		}
	}
}

// rows reads an array whose elements row reads, one span each.
func (s *rowScanner) rows(row func() bool) (spanRange, bool) {
	lo := len(s.spans)
	ok := s.array(row)
	return spanRange{lo, len(s.spans)}, ok
}

// upload reads a sparse upload object: its dim, and its rows as spans.
func (s *rowScanner) upload() (*sparseUpload, spanRange, bool) {
	up := new(sparseUpload)
	rows := noRows
	ok := s.fields(uploadKeys, func(key string) (ok bool) {
		if key == "dim" {
			var dim int64
			dim, ok = s.integer(strconv.IntSize)
			up.Dim = int(dim)
		} else {
			rows, ok = s.rows(s.sparseRow)
		}
		return ok
	})
	return up, rows, ok
}

// denseRow reads one dense row into the values block.
func (s *rowScanner) denseRow() bool {
	sp := rowSpan{ix: -1, val: len(s.val)}
	if !s.floats() {
		return false
	}
	sp.valEnd = len(s.val)
	s.spans = append(s.spans, sp)
	return true
}

// sparseRow reads one {"indices", "values"} object. An absent or null
// field stays nil; an empty array is an empty window, never nil.
func (s *rowScanner) sparseRow() bool {
	sp := rowSpan{ix: -1, val: -1}
	ok := s.fields(rowKeys, func(key string) bool {
		if s.null() {
			return true
		}
		if key == "indices" {
			sp.ix = len(s.ix)
			ok := s.indices()
			sp.ixEnd = len(s.ix)
			return ok
		}
		sp.val = len(s.val)
		ok := s.floats()
		sp.valEnd = len(s.val)
		return ok
	})
	if ok {
		s.spans = append(s.spans, sp)
	}
	return ok
}

// indices appends an array of int32 to the indices block.
func (s *rowScanner) indices() bool {
	if s.ix == nil {
		s.ix = make([]int32, 0, min(s.reserve, blockHint))
	}
	return s.array(func() bool {
		v, ok := s.index()
		s.ix = append(s.ix, v)
		return ok
	})
}

// floats appends an array of numbers to the values block.
func (s *rowScanner) floats() bool {
	if s.val == nil {
		s.val = make([]float64, 0, min(s.reserve, blockHint))
	}
	return s.array(func() bool {
		v, ok := s.float()
		s.val = append(s.val, v)
		return ok
	})
}

// index reads a plain decimal integer in int32's range. A fraction or an
// exponent is left unread, so the caller finds no delimiter and declines.
func (s *rowScanner) index() (int32, bool) {
	b, i := s.b, s.i
	neg := i < len(b) && b[i] == '-'
	if neg {
		i++
	}
	start := i
	var v int64
	for i < len(b) && b[i]-'0' < 10 {
		if i-start == 10 { // an eleventh digit: past int32 whatever it is
			return 0, false
		}
		v = v*10 + int64(b[i]-'0')
		i++
	}
	if i == start || (b[start] == '0' && i-start > 1) {
		return 0, false
	}
	if neg {
		v = -v
	}
	if v < math.MinInt32 || v > math.MaxInt32 {
		return 0, false
	}
	s.i = i
	return int32(v), true
}

// integer reads a plain decimal integer that fits in bits, as
// encoding/json reads one into an integer field.
func (s *rowScanner) integer(bits int) (int64, bool) {
	s.ws()
	b, i := s.b, s.i
	if i < len(b) && b[i] == '-' {
		i++
	}
	start := i
	for i < len(b) && b[i]-'0' < 10 {
		i++
	}
	if i == start || (b[start] == '0' && i-start > 1) {
		return 0, false
	}
	v, err := strconv.ParseInt(string(b[s.i:i]), 10, bits)
	s.i = i
	return v, err == nil
}

// float reads a JSON number as encoding/json reads one into a float64:
// strconv.ParseFloat over its text, once the text has JSON's grammar.
func (s *rowScanner) float() (float64, bool) {
	b, i := s.b, s.i
	if i < len(b) && b[i] == '-' {
		i++
	}
	digits := func() int {
		d := i
		for i < len(b) && b[i]-'0' < 10 {
			i++
		}
		return i - d
	}
	start := i
	if n := digits(); n == 0 || (b[start] == '0' && n > 1) {
		return 0, false
	}
	if i < len(b) && b[i] == '.' {
		i++
		if digits() == 0 {
			return 0, false
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if digits() == 0 {
			return 0, false
		}
	}
	f, err := strconv.ParseFloat(string(b[s.i:i]), 64)
	s.i = i
	return f, err == nil
}

// object returns the span of the object that comes next. It checks only
// the nesting and the strings; encoding/json decodes the span and checks
// the rest.
func (s *rowScanner) object() ([]byte, bool) {
	if s.peek() != '{' {
		return nil, false
	}
	start, depth := s.i, 0
	for s.i < len(s.b) {
		c := s.b[s.i]
		s.i++
		switch c {
		case '{', '[':
			depth++
		case '}', ']':
			if depth--; depth == 0 {
				return s.b[start:s.i], true
			}
		case '"':
			for s.i < len(s.b) && s.b[s.i] != '"' {
				if s.b[s.i] == '\\' {
					s.i++
				}
				s.i++
			}
			if s.i >= len(s.b) {
				return nil, false
			}
			s.i++
		}
	}
	return nil, false
}

// windows makes the blocks final and returns the rows of the dense and the
// sparse range as windows into them, nil for a range the body did not
// carry. A block that reserved more than an eighth over what it holds is
// copied to its length, and neither block is nil, so an empty window stays
// an empty slice rather than becoming nil.
func (s *rowScanner) windows(dense, sparse spanRange) ([][]float64, []sparseRow) {
	ix, val := fitBlock(s.ix), fitBlock(s.val)
	var drows [][]float64
	var srows []sparseRow
	if dense != noRows {
		spans := s.spans[dense.lo:dense.hi]
		drows = make([][]float64, len(spans))
		for k, sp := range spans {
			drows[k] = val[sp.val:sp.valEnd:sp.valEnd]
		}
	}
	if sparse != noRows {
		spans := s.spans[sparse.lo:sparse.hi]
		srows = make([]sparseRow, len(spans))
		for k, sp := range spans {
			if sp.ix >= 0 {
				srows[k].Indices = ix[sp.ix:sp.ixEnd:sp.ixEnd]
			}
			if sp.val >= 0 {
				srows[k].Values = val[sp.val:sp.valEnd:sp.valEnd]
			}
		}
	}
	return drows, srows
}

func fitBlock[T any](b []T) []T {
	if cap(b)-len(b) > len(b)/8 {
		b = append(make([]T, 0, len(b)), b...)
	}
	if b == nil {
		b = []T{}
	}
	return b
}
