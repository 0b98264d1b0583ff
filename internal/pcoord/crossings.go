// Package pcoord implements the chapter 5 parallel-coordinates machinery:
// O(n log n) line-crossing counting between adjacent coordinates (Algorithm
// 8), dimension ordering by approximating the minimum metric Hamiltonian
// path (MST 2-approximation, plus exact Held-Karp for small dimension), the
// energy-reduction model that de-clutters clustered lines on assistant
// coordinates (Algorithm 7), and an SVG renderer standing in for the
// paper's interactive display.
package pcoord

import (
	"sort"
)

// fenwick is a binary indexed tree over ranks, the order-statistics
// structure Algorithm 8 needs (the paper uses an augmented red-black tree;
// a Fenwick tree gives the same O(log n) insert/count).
type fenwick struct {
	tree []int64
}

func newFenwick(n int) *fenwick { return &fenwick{tree: make([]int64, n+1)} }

func (f *fenwick) add(i int) {
	for i++; i < len(f.tree); i += i & (-i) {
		f.tree[i]++
	}
}

// countLE returns how many inserted ranks are <= i.
func (f *fenwick) countLE(i int) int64 {
	var s int64
	for i++; i > 0; i -= i & (-i) {
		s += f.tree[i]
	}
	return s
}

// CountCrossings counts the line crossings between two adjacent coordinates
// in O(n log n): a crossing is an order change, i.e. a pair (i, j) with
// (a_i - a_j)(b_i - b_j) < 0. Ties on either coordinate do not cross.
func CountCrossings(a, b []float64) int64 {
	n := len(a)
	if n < 2 {
		return 0
	}
	// Rank b values (ties share a rank).
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(x, y int) bool { return b[idx[x]] < b[idx[y]] })
	rank := make([]int, n)
	r := 0
	for k := 0; k < n; k++ {
		if k > 0 && b[idx[k]] != b[idx[k-1]] {
			r++
		}
		rank[idx[k]] = r
	}
	maxRank := r

	// Process items in ascending a order; items with equal a are batched so
	// their mutual pairs are not counted.
	order := make([]int, n)
	copy(order, idx) // reuse storage
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(x, y int) bool { return a[order[x]] < a[order[y]] })

	ft := newFenwick(maxRank + 1)
	var crossings int64
	inserted := int64(0)
	k := 0
	for k < n {
		// Batch of equal a values.
		end := k
		for end < n && a[order[end]] == a[order[k]] {
			end++
		}
		// Count inversions against previously inserted items: an earlier
		// item with strictly larger b-rank crosses this one.
		for t := k; t < end; t++ {
			i := order[t]
			crossings += inserted - ft.countLE(rank[i])
		}
		for t := k; t < end; t++ {
			ft.add(rank[order[t]])
			inserted++
		}
		k = end
	}
	return crossings
}

// BruteCrossings is the O(n²) reference counter used by tests and tiny
// inputs.
func BruteCrossings(a, b []float64) int64 {
	var c int64
	for i := 0; i < len(a); i++ {
		for j := i + 1; j < len(a); j++ {
			if (a[i]-a[j])*(b[i]-b[j]) < 0 {
				c++
			}
		}
	}
	return c
}

// CrossingMatrix computes pairwise crossing counts between all columns of
// the dataset (rows = items, columns = dimensions) — the edge weights of
// the dimension-ordering graph. Kendall-tau crossing counts obey the
// triangle inequality, which is what licenses the metric 2-approximation.
func CrossingMatrix(data [][]float64) [][]int64 {
	if len(data) == 0 {
		return nil
	}
	d := len(data[0])
	cols := make([][]float64, d)
	for j := range cols {
		cols[j] = Column(data, j)
	}
	m := make([][]int64, d)
	for i := range m {
		m[i] = make([]int64, d)
	}
	for i := 0; i < d; i++ {
		for j := i + 1; j < d; j++ {
			c := CountCrossings(cols[i], cols[j])
			m[i][j] = c
			m[j][i] = c
		}
	}
	return m
}

// Column returns column j of a row-major table.
func Column(data [][]float64, j int) []float64 {
	out := make([]float64, len(data))
	for i := range data {
		out[i] = data[i][j]
	}
	return out
}

// TotalCrossings sums crossings along consecutive pairs of an ordering.
func TotalCrossings(order []int, m [][]int64) int64 {
	var t int64
	for k := 0; k+1 < len(order); k++ {
		t += m[order[k]][order[k+1]]
	}
	return t
}
