// Package vec provides the vector substrate PLASMA-HD probes: dense rows for
// UCI-style tables, sparse TF/IDF rows for document and network corpora, and
// the cosine and Jaccard similarity measures used throughout the paper.
package vec

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// Sparse is a sparse vector with strictly increasing indices. The weighted
// datasets of Table 2.1/4.6 (TF/IDF) carry one value per index and use
// cosine; the unweighted ones (Orkut-style) use Jaccard, which reads only
// the index set, so their rows carry no values (nil Values).
type Sparse struct {
	Indices []int32
	Values  []float64
}

// MaxDim is the largest feature-space dimension a dataset may declare. A
// dimension costs memory before any row is read (a signed-random-projection
// sketcher keeps a slot per dimension, the candidate index two counters), so
// every dimension that arrives from outside the program — an upload, a
// snapshot stream — is checked against it first. It is above every built-in
// corpus: the largest generated dimensions are 2²⁰ (graphs) and 1.25 M.
const MaxDim = 1 << 22

// Check reports the first way s is not a row over dimension dim under
// measure m: a value count that differs from the index count, an index
// outside [0, dim), or indices that do not strictly increase. A cosine row
// needs one value per index; a Jaccard row may have nil Values, but values
// it does carry are counted too. It is the one row check every row passes
// before it is sketched, whether it arrives at create, at append or in a
// snapshot stream.
func (s Sparse) Check(dim int, m Measure) error {
	if (s.Values != nil || m == CosineSim) && len(s.Values) != len(s.Indices) {
		return fmt.Errorf("%d indices but %d values", len(s.Indices), len(s.Values))
	}
	for k, ix := range s.Indices {
		if ix < 0 || int(ix) >= dim {
			return fmt.Errorf("index %d out of range [0, %d)", ix, dim)
		}
		if k > 0 && s.Indices[k-1] >= ix {
			return errors.New("indices must be strictly increasing")
		}
	}
	return nil
}

// Len returns the number of non-zeros.
func (s Sparse) Len() int { return len(s.Indices) }

// Norm returns the L2 norm.
func (s Sparse) Norm() float64 {
	var ss float64
	for _, v := range s.Values {
		ss += float64(v * v) // rounded: no fused multiply-add
	}
	return math.Sqrt(ss)
}

// Normalize scales the vector to unit L2 norm in place (no-op on zero vectors).
func (s Sparse) Normalize() {
	n := s.Norm()
	if n == 0 {
		return
	}
	for i := range s.Values {
		s.Values[i] /= n
	}
}

// Dot returns the sparse dot product of a and b (merge join on indices).
func Dot(a, b Sparse) float64 {
	var sum float64
	i, j := 0, 0
	for i < len(a.Indices) && j < len(b.Indices) {
		switch {
		case a.Indices[i] == b.Indices[j]:
			sum += float64(a.Values[i] * b.Values[j]) // rounded: no fused multiply-add
			i++
			j++
		case a.Indices[i] < b.Indices[j]:
			i++
		default:
			j++
		}
	}
	return sum
}

// Cosine returns the cosine similarity of a and b (0 if either is zero).
func Cosine(a, b Sparse) float64 {
	na, nb := a.Norm(), b.Norm()
	if na == 0 || nb == 0 {
		return 0
	}
	return Dot(a, b) / (na * nb)
}

// Jaccard returns |a∩b| / |a∪b| over the index sets, ignoring weights.
func Jaccard(a, b Sparse) float64 {
	inter := 0
	i, j := 0, 0
	for i < len(a.Indices) && j < len(b.Indices) {
		switch {
		case a.Indices[i] == b.Indices[j]:
			inter++
			i++
			j++
		case a.Indices[i] < b.Indices[j]:
			i++
		default:
			j++
		}
	}
	union := len(a.Indices) + len(b.Indices) - inter
	if union == 0 {
		return 0
	}
	return float64(inter) / float64(union)
}

// FromDense converts a dense row to a Sparse vector, dropping exact zeros.
func FromDense(row []float64) Sparse {
	var s Sparse
	for i, v := range row {
		if v != 0 {
			s.Indices = append(s.Indices, int32(i))
			s.Values = append(s.Values, v)
		}
	}
	return s
}

// FromMap builds a Sparse vector from an index->value map, sorting indices.
func FromMap(m map[int32]float64) Sparse {
	s := Sparse{
		Indices: make([]int32, 0, len(m)),
		Values:  make([]float64, 0, len(m)),
	}
	for i := range m {
		s.Indices = append(s.Indices, i)
	}
	sort.Slice(s.Indices, func(a, b int) bool { return s.Indices[a] < s.Indices[b] })
	for _, i := range s.Indices {
		s.Values = append(s.Values, m[i])
	}
	return s
}

// Measure identifies a pairwise similarity function.
type Measure int

const (
	// CosineSim compares weighted vectors by angle; used for every weighted
	// dataset in the paper.
	CosineSim Measure = iota
	// JaccardSim compares index sets; used for the unweighted Orkut-style
	// datasets.
	JaccardSim
)

// String implements fmt.Stringer.
func (m Measure) String() string {
	switch m {
	case CosineSim:
		return "cosine"
	case JaccardSim:
		return "jaccard"
	}
	return fmt.Sprintf("Measure(%d)", int(m))
}

// Similarity evaluates the measure on a pair.
func (m Measure) Similarity(a, b Sparse) float64 {
	if m == JaccardSim {
		return Jaccard(a, b)
	}
	return Cosine(a, b)
}

// Dataset is an ordered collection of sparse vectors over a shared dimension
// space together with the similarity measure-of-interest — PLASMA-HD's only
// required input (§2.5: "requiring only a similarity function").
type Dataset struct {
	Name    string
	Dim     int
	Rows    []Sparse
	Measure Measure
}

// N returns the number of rows.
func (d *Dataset) N() int { return len(d.Rows) }

// Nnz returns the total number of non-zeros (the "Nnz" column of Table 2.1).
func (d *Dataset) Nnz() int {
	t := 0
	for _, r := range d.Rows {
		t += r.Len()
	}
	return t
}

// AvgLen returns the mean non-zeros per row (the "Avg. len" column).
func (d *Dataset) AvgLen() float64 {
	if len(d.Rows) == 0 {
		return 0
	}
	return float64(d.Nnz()) / float64(len(d.Rows))
}

// Similarity returns the measure applied to rows i and j.
func (d *Dataset) Similarity(i, j int) float64 {
	return d.Measure.Similarity(d.Rows[i], d.Rows[j])
}

// NormalizeRows puts every row in the form the measure reads. Cosine rows
// are L2-normalized, after which cosine similarity is a plain dot product;
// BayesLSH's all-pairs pipeline requires this. Jaccard rows lose their
// values, since Jaccard reads only the index set. It is row-local, so a
// batch normalized on its own matches the same rows normalized in place.
func (d *Dataset) NormalizeRows() {
	for i := range d.Rows {
		if d.Measure == JaccardSim {
			d.Rows[i].Values = nil
		} else {
			d.Rows[i].Normalize()
		}
	}
}

// FromDenseMatrix wraps a dense matrix as a Dataset with the given measure.
func FromDenseMatrix(name string, x [][]float64, m Measure) *Dataset {
	d := &Dataset{Name: name, Measure: m}
	for _, row := range x {
		d.Rows = append(d.Rows, FromDense(row))
		if len(row) > d.Dim {
			d.Dim = len(row)
		}
	}
	return d
}

// TFIDF reweights every row by term frequency × inverse document frequency,
// the weighting applied to the Twitter/RCV1/Wiki corpora in Tables 2.1 and
// 4.6: w = tf * ln(N / df).
func (d *Dataset) TFIDF() {
	df := make(map[int32]int)
	for _, r := range d.Rows {
		for _, ix := range r.Indices {
			df[ix]++
		}
	}
	n := float64(len(d.Rows))
	for _, r := range d.Rows {
		for k, ix := range r.Indices {
			r.Values[k] *= math.Log(n / float64(df[ix]))
		}
	}
}

// Sample returns a new Dataset containing the rows at the given positions.
func (d *Dataset) Sample(rows []int) *Dataset {
	out := &Dataset{Name: d.Name + "-sample", Dim: d.Dim, Measure: d.Measure}
	for _, i := range rows {
		out.Rows = append(out.Rows, d.Rows[i])
	}
	return out
}
