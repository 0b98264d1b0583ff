// Package vectest holds the malformed rows every door a row enters by must
// refuse: vec.Sparse.Check itself, the server's create and append
// endpoints, Cache.AppendRows and a session stream that embeds the row. One
// table, so the doors cannot drift apart.
package vectest

import "plasmahd/internal/vec"

// Dim is the dimension the rows of Malformed are checked against.
const Dim = 8

// Good is a well-formed row over Dim, to sit beside a malformed one.
var Good = vec.Sparse{Indices: []int32{0, 2}, Values: []float64{1, 1}}

// Malformed lists rows that fail vec.Sparse.Check against Dim, each with the
// error the check reports.
var Malformed = []struct {
	Name string
	Row  vec.Sparse
	Err  string
}{
	{"values count", vec.Sparse{Indices: []int32{0, 1}, Values: []float64{1}}, "2 indices but 1 values"},
	{"index at dim", vec.Sparse{Indices: []int32{1, Dim}, Values: []float64{1, 1}}, "index 8 out of range [0, 8)"},
	{"negative index", vec.Sparse{Indices: []int32{-1, 3}, Values: []float64{1, 1}}, "index -1 out of range [0, 8)"},
	{"repeated index", vec.Sparse{Indices: []int32{2, 2}, Values: []float64{1, 1}}, "indices must be strictly increasing"},
	{"decreasing", vec.Sparse{Indices: []int32{3, 1}, Values: []float64{1, 1}}, "indices must be strictly increasing"},
}
