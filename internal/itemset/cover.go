package itemset

import (
	"slices"
	"sort"
	"time"
)

// CandidateOrder selects the greedy consumption order for Cover — the knob
// that distinguishes the baseline compressors.
type CandidateOrder int

// Candidate orders.
const (
	// OrderArea consumes by descending (|I|-1)·(F-1) — the LocalOptimal
	// heuristic the paper applies to closed sets ("CDB-style" tiling).
	OrderArea CandidateOrder = iota
	// OrderKrimp consumes in Krimp's standard candidate order: length
	// descending, then support descending, then lexicographic.
	OrderKrimp
)

// CoverResult is the outcome of compressing a database with a candidate
// pattern list.
type CoverResult struct {
	CodeTable      []Itemset // accepted patterns, in consumption order
	OriginalSize   int       // tokens before
	CompressedSize int       // rewritten rows + code-table entries
	Ratio          float64   // OriginalSize / CompressedSize
	Elapsed        time.Duration
}

// Cover compresses db with the candidate itemsets using the same
// LocalOptimal consume step as LAM (§4.5: "we implement a compression
// scheme that takes as input the patterns generated by these respective
// algorithms and applies the same LocalOptimal greedy heuristic"):
// candidates are visited in the chosen order; each is consumed in every row
// that still contains it, replacing the items with a single code pointer,
// provided the recomputed utility is still fruitful. db is not modified.
func Cover(db *DB, candidates []Itemset, order CandidateOrder) *CoverResult {
	start := time.Now()
	work := db.Clone()
	res := &CoverResult{OriginalSize: db.Size()}

	cands := append([]Itemset(nil), candidates...)
	switch order {
	case OrderKrimp:
		sort.Slice(cands, func(a, b int) bool {
			la, lb := len(cands[a].Items), len(cands[b].Items)
			if la != lb {
				return la > lb
			}
			if cands[a].Support != cands[b].Support {
				return cands[a].Support > cands[b].Support
			}
			return slices.Compare(cands[a].Items, cands[b].Items) < 0
		})
	default:
		sort.Slice(cands, func(a, b int) bool {
			ua := (len(cands[a].Items) - 1) * (cands[a].Support - 1)
			ub := (len(cands[b].Items) - 1) * (cands[b].Support - 1)
			if ua != ub {
				return ua > ub
			}
			return slices.Compare(cands[a].Items, cands[b].Items) < 0
		})
	}

	nextCode := int32(work.NumItems)
	codeRows := 0
	for _, cand := range cands {
		if len(cand.Items) < 2 {
			continue
		}
		// Recompute the actual cover count against the rewritten rows.
		var hits []int
		for i, row := range work.Rows {
			if ContainsSorted(row, cand.Items) {
				hits = append(hits, i)
			}
		}
		f, l := len(hits), len(cand.Items)
		// Fruitfulness: replacing f·l tokens with f pointers plus an l-token
		// code-table entry must shrink the database.
		if f*l <= f+l {
			continue
		}
		for _, i := range hits {
			work.Rows[i] = RemoveSubset(work.Rows[i], cand.Items)
			work.Rows[i] = append(work.Rows[i], nextCode)
		}
		res.CodeTable = append(res.CodeTable, Itemset{Items: cand.Items, Support: f})
		codeRows += l
		nextCode++
	}
	res.CompressedSize = work.Size() + codeRows
	if res.CompressedSize > 0 {
		res.Ratio = float64(res.OriginalSize) / float64(res.CompressedSize)
	}
	res.Elapsed = time.Since(start)
	return res
}

// RemoveSubset removes the (sorted) subset items from sorted row in place.
// Pointer codes appended past the sorted region are preserved.
func RemoveSubset(row, sub []int32) []int32 {
	out := row[:0]
	j := 0
	for _, it := range row {
		if j < len(sub) && it == sub[j] {
			j++
			continue
		}
		out = append(out, it)
	}
	return out
}
