package lam

import (
	"slices"
	"sort"

	"plasmahd/internal/lsh"
	"plasmahd/internal/vec"
)

// Localize implements Algorithm 3: each row gets a K-value minhash
// signature from the engine's minwise family (lsh.MinHasher), rows are
// sorted lexicographically by signature, and the sorted order is split
// column-by-column into runs of equal hashes until a run fits under the
// chunk threshold (or columns are exhausted). It returns groups of row
// indices; singleton groups are legal and simply yield no patterns
// downstream.
func Localize(rows [][]int32, k, chunk int, seed int64) [][]int {
	n := len(rows)
	if n == 0 {
		return nil
	}
	if k < 1 {
		k = 1
	}
	if chunk < 2 {
		chunk = 2
	}
	mh := lsh.NewMinHasher(k, seed)
	// Minhash matrix M[i][j].
	m := make([][]uint32, n)
	for i, row := range rows {
		m[i] = mh.Sketch(vec.Sparse{Indices: row})
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		if c := slices.Compare(m[idx[a]], m[idx[b]]); c != 0 {
			return c < 0
		}
		return idx[a] < idx[b]
	})

	var out [][]int
	var split func(lo, hi, col int)
	split = func(lo, hi, col int) {
		if hi-lo <= chunk || col >= k {
			out = append(out, idx[lo:hi:hi])
			return
		}
		runStart := lo
		for i := lo + 1; i <= hi; i++ {
			if i == hi || m[idx[i]][col] != m[idx[runStart]][col] {
				split(runStart, i, col+1)
				runStart = i
			}
		}
	}
	split(0, n, 0)
	return out
}
