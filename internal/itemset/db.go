// Package itemset provides the transactional-database substrate of chapter
// 4 and the baseline miners LAM is compared against: an LCM closed itemset
// miner, the Apriori and subsumption references the tests check it
// against, and the greedy cover compressor that turns any candidate
// pattern list into a compressed database (the harness the paper applies
// uniformly to closed sets, Krimp-style candidates, and CDB-style
// candidates).
package itemset

import (
	"sort"
)

// DB is a transactional database: rows of sorted distinct item ids over the
// label universe [0, NumItems).
type DB struct {
	Rows     [][]int32
	NumItems int
}

// FromRows converts generic int rows into a DB, sorting and deduplicating.
func FromRows(rows [][]int) *DB {
	db := &DB{Rows: make([][]int32, len(rows))}
	for i, r := range rows {
		row := make([]int32, 0, len(r))
		for _, it := range r {
			row = append(row, int32(it))
			if it+1 > db.NumItems {
				db.NumItems = it + 1
			}
		}
		sort.Slice(row, func(a, b int) bool { return row[a] < row[b] })
		out := row[:0]
		var prev int32 = -1
		for _, it := range row {
			if it != prev {
				out = append(out, it)
				prev = it
			}
		}
		db.Rows[i] = out
	}
	return db
}

// Clone deep-copies the database.
func (db *DB) Clone() *DB {
	out := &DB{Rows: make([][]int32, len(db.Rows)), NumItems: db.NumItems}
	for i, r := range db.Rows {
		out.Rows[i] = append([]int32(nil), r...)
	}
	return out
}

// Size returns the token count Σ|row| — the |D| the chapter 4 complexity
// bound and compression ratios are stated in.
func (db *DB) Size() int {
	s := 0
	for _, r := range db.Rows {
		s += len(r)
	}
	return s
}

// Sample returns a new DB with the given fraction of rows (deterministic
// prefix stride), used for the Fig 4.8 sampling experiment.
func (db *DB) Sample(frac float64) *DB {
	if frac >= 1 {
		return db.Clone()
	}
	stride := int(1 / frac)
	if stride < 1 {
		stride = 1
	}
	out := &DB{NumItems: db.NumItems}
	for i := 0; i < len(db.Rows); i += stride {
		out.Rows = append(out.Rows, append([]int32(nil), db.Rows[i]...))
	}
	return out
}

// ContainsSorted reports whether sorted slice sub is a subset of sorted
// slice row.
func ContainsSorted(row, sub []int32) bool {
	i, j := 0, 0
	for i < len(row) && j < len(sub) {
		switch {
		case row[i] == sub[j]:
			i++
			j++
		case row[i] < sub[j]:
			i++
		default:
			return false
		}
	}
	return j == len(sub)
}

// Support counts the rows containing the (sorted) itemset.
func (db *DB) Support(items []int32) int {
	c := 0
	for _, r := range db.Rows {
		if ContainsSorted(r, items) {
			c++
		}
	}
	return c
}

// Itemset is a mined pattern with its support.
type Itemset struct {
	Items   []int32
	Support int
}

// key renders the itemset as a comparable map key.
func (s Itemset) key() string {
	b := make([]byte, 0, len(s.Items)*4)
	for _, it := range s.Items {
		b = append(b, byte(it), byte(it>>8), byte(it>>16), byte(it>>24))
	}
	return string(b)
}

// lessItems orders sorted itemsets lexicographically, a proper prefix first.
func lessItems(a, b []int32) bool {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}
