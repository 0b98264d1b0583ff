package itemset

import (
	"slices"
	"sort"
)

// MineClosed mines the closed frequent itemsets (frequent itemsets with no
// proper superset of equal support, §4.2) with an LCM-style enumeration:
// prefix-preserving closure extension visits each closed set exactly once
// without materializing the (possibly exponential) frequent-set lattice, so
// it stays feasible on the dense datasets where subsumption filtering
// explodes. maxPatterns caps the output (0 = unlimited); the boolean result
// reports whether enumeration completed.
func MineClosed(db *DB, minsup int, maxPatterns int) ([]Itemset, bool) {
	if minsup < 1 {
		minsup = 1
	}
	m := &lcmMiner{db: db, minsup: minsup, maxPatterns: maxPatterns}
	// Tid lists per item.
	m.tids = make([][]int32, db.NumItems)
	for t, row := range db.Rows {
		for _, it := range row {
			m.tids[it] = append(m.tids[it], int32(t))
		}
	}
	// Root: the closure of the empty set is the set of items present in
	// every row; it is the unique smallest closed set.
	allTids := make([]int32, len(db.Rows))
	for i := range allTids {
		allTids[i] = int32(i)
	}
	root := m.closure(allTids)
	complete := true
	if len(db.Rows) >= minsup {
		if len(root) > 0 {
			m.out = append(m.out, Itemset{Items: append([]int32(nil), root...), Support: len(db.Rows)})
		}
		complete = m.expand(root, -1, allTids)
	}
	sort.Slice(m.out, func(a, b int) bool {
		if len(m.out[a].Items) != len(m.out[b].Items) {
			return len(m.out[a].Items) < len(m.out[b].Items)
		}
		return slices.Compare(m.out[a].Items, m.out[b].Items) < 0
	})
	return m.out, complete
}

type lcmMiner struct {
	db          *DB
	minsup      int
	maxPatterns int
	tids        [][]int32
	out         []Itemset
	counts      []int // scratch: item frequency within current tidlist
}

// closure returns the sorted set of items present in every row of tidlist.
func (m *lcmMiner) closure(tidlist []int32) []int32 {
	if len(tidlist) == 0 {
		return nil
	}
	cur := append([]int32(nil), m.db.Rows[tidlist[0]]...)
	for _, t := range tidlist[1:] {
		if len(cur) == 0 {
			break
		}
		cur = intersectSorted(cur, m.db.Rows[t])
	}
	return cur
}

// expand recursively enumerates the ppc-extensions of closed set p (with
// tidlist tp), extending only with items greater than coreItem. Returns
// false if the pattern cap was reached.
func (m *lcmMiner) expand(p []int32, coreItem int32, tp []int32) bool {
	// Frequency of each item within tp.
	if m.counts == nil {
		m.counts = make([]int, m.db.NumItems)
	}
	counts := m.counts
	touched := make([]int32, 0, 64)
	for _, t := range tp {
		for _, it := range m.db.Rows[t] {
			if counts[it] == 0 {
				touched = append(touched, it)
			}
			counts[it]++
		}
	}
	sort.Slice(touched, func(a, b int) bool { return touched[a] < touched[b] })
	inP := make(map[int32]bool, len(p))
	for _, it := range p {
		inP[it] = true
	}
	// Collect valid ppc-extensions first so the shared counts scratch can be
	// reset before recursing.
	type ext struct {
		q  []int32
		f  int32
		tq []int32
	}
	var exts []ext
	for _, f := range touched {
		if f <= coreItem || inP[f] || counts[f] < m.minsup {
			continue
		}
		// Tidlist of P ∪ {f}.
		tq := intersectSorted(tp, m.tids[f])
		q := m.closure(tq)
		// Prefix-preserving check: no new item below f may appear.
		ppc := true
		for _, it := range q {
			if it >= f {
				break
			}
			if !inP[it] {
				ppc = false
				break
			}
		}
		if ppc {
			exts = append(exts, ext{q: q, f: f, tq: tq})
		}
	}
	for _, it := range touched {
		counts[it] = 0
	}
	for _, e := range exts {
		if m.maxPatterns > 0 && len(m.out) >= m.maxPatterns {
			return false
		}
		m.out = append(m.out, Itemset{Items: append([]int32(nil), e.q...), Support: len(e.tq)})
		if !m.expand(e.q, e.f, e.tq) {
			return false
		}
	}
	return true
}

// intersectSorted intersects two sorted int32 slices into a new slice.
func intersectSorted(a, b []int32) []int32 {
	out := make([]int32, 0, len(a))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			out = append(out, a[i])
			i++
			j++
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	return out
}
