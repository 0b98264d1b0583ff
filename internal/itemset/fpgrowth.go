package itemset

import (
	"maps"
	"slices"
	"sort"
)

// fpNode is a node of the FP-tree.
type fpNode struct {
	item     int32
	count    int
	parent   *fpNode
	children map[int32]*fpNode
	next     *fpNode // header-table chain
}

type fpTree struct {
	root    *fpNode
	headers map[int32]*fpNode
	counts  map[int32]int
}

func buildFPTree(rows [][]int32, minsup int, order map[int32]int) *fpTree {
	t := &fpTree{
		root:    &fpNode{children: map[int32]*fpNode{}},
		headers: map[int32]*fpNode{},
		counts:  map[int32]int{},
	}
	for _, row := range rows {
		t.insert(row, 1, order)
	}
	return t
}

func (t *fpTree) insert(items []int32, count int, order map[int32]int) {
	// Filter to frequent items and sort by descending global frequency.
	kept := make([]int32, 0, len(items))
	for _, it := range items {
		if _, ok := order[it]; ok {
			kept = append(kept, it)
		}
	}
	sort.Slice(kept, func(a, b int) bool { return order[kept[a]] < order[kept[b]] })
	node := t.root
	for _, it := range kept {
		child := node.children[it]
		if child == nil {
			child = &fpNode{item: it, parent: node, children: map[int32]*fpNode{}}
			child.next = t.headers[it]
			t.headers[it] = child
			node.children[it] = child
		}
		child.count += count
		node = child
	}
	for _, it := range kept {
		t.counts[it] += count
	}
}

// MineFrequent mines all itemsets with support >= minsup using FP-growth.
// maxPatterns caps the output as a web-scale safety valve (0 = unlimited);
// when the cap is hit the boolean result is false.
func MineFrequent(db *DB, minsup int, maxPatterns int) ([]Itemset, bool) {
	if minsup < 1 {
		minsup = 1
	}
	// Global frequencies define the FP ordering.
	freq := map[int32]int{}
	for _, row := range db.Rows {
		for _, it := range row {
			freq[it]++
		}
	}
	type fi struct {
		item int32
		c    int
	}
	var frequents []fi
	for _, it := range slices.Sorted(maps.Keys(freq)) {
		if c := freq[it]; c >= minsup {
			frequents = append(frequents, fi{it, c})
		}
	}
	sort.Slice(frequents, func(a, b int) bool {
		if frequents[a].c != frequents[b].c {
			return frequents[a].c > frequents[b].c
		}
		return frequents[a].item < frequents[b].item
	})
	order := map[int32]int{}
	for i, f := range frequents {
		order[f.item] = i
	}
	tree := buildFPTree(db.Rows, minsup, order)

	var out []Itemset
	complete := fpGrowth(tree, nil, minsup, maxPatterns, &out)
	for i := range out {
		sortItems(out[i].Items)
	}
	sort.Slice(out, func(a, b int) bool {
		if len(out[a].Items) != len(out[b].Items) {
			return len(out[a].Items) < len(out[b].Items)
		}
		return lessItems(out[a].Items, out[b].Items)
	})
	return out, complete
}

func sortItems(items []int32) {
	sort.Slice(items, func(a, b int) bool { return items[a] < items[b] })
}

func lessItems(a, b []int32) bool {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}

// fpGrowth recursively mines tree with the given suffix. Returns false if
// the pattern cap was hit.
func fpGrowth(tree *fpTree, suffix []int32, minsup, maxPatterns int, out *[]Itemset) bool {
	// Items in this conditional tree, ascending frequency so smaller
	// conditional trees are mined first.
	type fi struct {
		item int32
		c    int
	}
	var items []fi
	for _, it := range slices.Sorted(maps.Keys(tree.counts)) {
		if c := tree.counts[it]; c >= minsup {
			items = append(items, fi{it, c})
		}
	}
	sort.Slice(items, func(a, b int) bool {
		if items[a].c != items[b].c {
			return items[a].c < items[b].c
		}
		return items[a].item < items[b].item
	})
	for _, f := range items {
		if maxPatterns > 0 && len(*out) >= maxPatterns {
			return false
		}
		pattern := append(append([]int32(nil), suffix...), f.item)
		*out = append(*out, Itemset{Items: pattern, Support: f.c})
		// Conditional pattern base of f.item.
		cond := &fpTree{
			root:    &fpNode{children: map[int32]*fpNode{}},
			headers: map[int32]*fpNode{},
			counts:  map[int32]int{},
		}
		condOrder := map[int32]int{}
		// First pass: conditional item frequencies.
		condFreq := map[int32]int{}
		for n := tree.headers[f.item]; n != nil; n = n.next {
			for p := n.parent; p != nil && p.parent != nil; p = p.parent {
				condFreq[p.item] += n.count
			}
		}
		type cfi struct {
			item int32
			c    int
		}
		var condItems []cfi
		for _, it := range slices.Sorted(maps.Keys(condFreq)) {
			if c := condFreq[it]; c >= minsup {
				condItems = append(condItems, cfi{it, c})
			}
		}
		if len(condItems) == 0 {
			continue
		}
		sort.Slice(condItems, func(a, b int) bool {
			if condItems[a].c != condItems[b].c {
				return condItems[a].c > condItems[b].c
			}
			return condItems[a].item < condItems[b].item
		})
		for i, ci := range condItems {
			condOrder[ci.item] = i
		}
		for n := tree.headers[f.item]; n != nil; n = n.next {
			var path []int32
			for p := n.parent; p != nil && p.parent != nil; p = p.parent {
				path = append(path, p.item)
			}
			if len(path) > 0 {
				cond.insert(path, n.count, condOrder)
			}
		}
		if !fpGrowth(cond, pattern, minsup, maxPatterns, out) {
			return false
		}
	}
	return true
}

// mineClosedBySubsumption derives closed sets by frequent mining plus
// support-grouped subsumption filtering. Exponential on dense data; kept as
// a reference oracle for tests. Production callers use MineClosed (LCM).
func mineClosedBySubsumption(db *DB, minsup int, maxPatterns int) ([]Itemset, bool) {
	all, complete := MineFrequent(db, minsup, maxPatterns)
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
	return out, complete
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
				sortItems(cand)
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
