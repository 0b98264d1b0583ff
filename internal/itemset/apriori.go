package itemset

import (
	"maps"
	"slices"
	"sort"
)

// mineClosedBySubsumption derives closed sets by Apriori frequent mining
// plus support-grouped subsumption filtering. Exponential on dense data;
// kept as a reference oracle for tests. Production callers use MineClosed
// (LCM).
func mineClosedBySubsumption(db *DB, minsup int) []Itemset {
	all := AprioriFrequent(db, minsup)
	bySupport := map[int][]Itemset{}
	for _, s := range all {
		bySupport[s.Support] = append(bySupport[s.Support], s)
	}
	var out []Itemset
	for _, sup := range slices.Sorted(maps.Keys(bySupport)) {
		group := bySupport[sup]
		// Within a support group, an itemset is non-closed iff some other
		// member is a proper superset. Sort by descending length so
		// supersets come first.
		sort.Slice(group, func(a, b int) bool { return len(group[a].Items) > len(group[b].Items) })
		for i, s := range group {
			closed := true
			for j := 0; j < i; j++ {
				if len(group[j].Items) > len(s.Items) && ContainsSorted(group[j].Items, s.Items) {
					closed = false
					break
				}
			}
			if closed {
				out = append(out, s)
			}
		}
	}
	sort.Slice(out, func(a, b int) bool {
		if len(out[a].Items) != len(out[b].Items) {
			return len(out[a].Items) < len(out[b].Items)
		}
		return lessItems(out[a].Items, out[b].Items)
	})
	return out
}

// AprioriFrequent is a reference implementation of frequent mining by
// level-wise candidate generation; quadratic and only suitable for tests.
func AprioriFrequent(db *DB, minsup int) []Itemset {
	if minsup < 1 {
		minsup = 1
	}
	var out []Itemset
	// L1.
	freq := map[int32]int{}
	for _, r := range db.Rows {
		for _, it := range r {
			freq[it]++
		}
	}
	var level []Itemset
	for _, it := range slices.Sorted(maps.Keys(freq)) {
		if c := freq[it]; c >= minsup {
			level = append(level, Itemset{Items: []int32{it}, Support: c})
		}
	}
	sort.Slice(level, func(a, b int) bool { return lessItems(level[a].Items, level[b].Items) })
	for len(level) > 0 {
		out = append(out, level...)
		// Generate next level by joining itemsets sharing a prefix.
		seen := map[string]bool{}
		var next []Itemset
		for i := 0; i < len(level); i++ {
			for j := i + 1; j < len(level); j++ {
				a, b := level[i].Items, level[j].Items
				if !samePrefix(a, b) {
					continue
				}
				cand := append(append([]int32(nil), a...), b[len(b)-1])
				slices.Sort(cand)
				is := Itemset{Items: cand}
				if seen[is.key()] {
					continue
				}
				seen[is.key()] = true
				if sup := db.Support(cand); sup >= minsup {
					next = append(next, Itemset{Items: cand, Support: sup})
				}
			}
		}
		sort.Slice(next, func(a, b int) bool { return lessItems(next[a].Items, next[b].Items) })
		level = next
	}
	sort.Slice(out, func(a, b int) bool {
		if len(out[a].Items) != len(out[b].Items) {
			return len(out[a].Items) < len(out[b].Items)
		}
		return lessItems(out[a].Items, out[b].Items)
	})
	return out
}

func samePrefix(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := 0; i < len(a)-1; i++ {
		if a[i] != b[i] {
			return false
		}
	}
	return a[len(a)-1] != b[len(b)-1]
}
