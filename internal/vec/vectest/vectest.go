// Package vectest holds the row table every door a row enters by must
// agree on: vec.Sparse.Check itself, the server's create and append
// endpoints, Cache.AppendRows and a snapshot stream that carries the row.
// One table, so the doors cannot drift apart.
package vectest

import "plasmahd/internal/vec"

// Dim is the dimension the rows of Rows are checked against.
const Dim = 8

// Good is a well-formed row over Dim under either measure, to sit beside
// a row of the table.
var Good = vec.Sparse{Indices: []int32{0, 2}, Values: []float64{1, 1}}

// Rows lists rows checked against Dim under a measure, each with the error
// vec.Sparse.Check reports, or "" for a row every door accepts.
var Rows = []struct {
	Name    string
	Measure vec.Measure
	Row     vec.Sparse
	Err     string
}{
	{"values count", vec.CosineSim, vec.Sparse{Indices: []int32{0, 1}, Values: []float64{1}}, "2 indices but 1 values"},
	{"jaccard values count", vec.JaccardSim, vec.Sparse{Indices: []int32{0, 1}, Values: []float64{1}}, "2 indices but 1 values"},
	{"cosine without values", vec.CosineSim, vec.Sparse{Indices: []int32{0, 1}}, "2 indices but 0 values"},
	{"jaccard without values", vec.JaccardSim, vec.Sparse{Indices: []int32{0, 1}}, ""},
	{"index at dim", vec.CosineSim, vec.Sparse{Indices: []int32{1, Dim}, Values: []float64{1, 1}}, "index 8 out of range [0, 8)"},
	{"negative index", vec.JaccardSim, vec.Sparse{Indices: []int32{-1, 3}}, "index -1 out of range [0, 8)"},
	{"repeated index", vec.CosineSim, vec.Sparse{Indices: []int32{2, 2}, Values: []float64{1, 1}}, "indices must be strictly increasing"},
	{"decreasing", vec.JaccardSim, vec.Sparse{Indices: []int32{3, 1}}, "indices must be strictly increasing"},
}
