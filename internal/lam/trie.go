package lam

import (
	"maps"
	"slices"
	"sort"
)

// Utility selects the pattern ranking function of §4.4.2.
type Utility int

// Utility functions.
const (
	// Area ranks by (|L|-1)·(|F|-1): tokens saved by consuming the pattern.
	Area Utility = iota
	// RC (Relative Closedness) ranks by Σ_{t∈T_I} |I|/|t|: how much of each
	// covering transaction the pattern explains.
	RC
)

// String implements fmt.Stringer.
func (u Utility) String() string {
	if u == RC {
		return "rc"
	}
	return "area"
}

// trieNode is one node of the partition trie (Fig 4.3): the label item, the
// transactions whose reordered prefix passes through it, and the coloring
// state of Algorithm 6.
type trieNode struct {
	item     int32
	parent   *trieNode
	children map[int32]*trieNode
	tids     []int32
	colored  bool
}

func (n *trieNode) count() int { return len(n.tids) }

// Potential is a candidate pattern from the trie walk: the full root path
// items, the transactions at its deepest node, and its utility.
type Potential struct {
	Items   []int32
	Tids    []int32
	Utility float64
}

// buildTrie builds the partition trie: per-partition item frequencies are
// counted, singleton items dropped, each transaction's items reordered by
// descending frequency (ties by item id), and inserted root-down.
func buildTrie(rows [][]int32, part []int) *trieNode {
	counts := map[int32]int{}
	for _, t := range part {
		for _, it := range rows[t] {
			counts[it]++
		}
	}
	root := &trieNode{children: map[int32]*trieNode{}}
	reorder := make([]int32, 0, 64)
	for _, t := range part {
		reorder = reorder[:0]
		for _, it := range rows[t] {
			if counts[it] >= 2 {
				reorder = append(reorder, it)
			}
		}
		sort.Slice(reorder, func(a, b int) bool {
			ca, cb := counts[reorder[a]], counts[reorder[b]]
			if ca != cb {
				return ca > cb
			}
			return reorder[a] < reorder[b]
		})
		node := root
		for _, it := range reorder {
			child := node.children[it]
			if child == nil {
				child = &trieNode{item: it, parent: node, children: map[int32]*trieNode{}}
				node.children[it] = child
			}
			child.tids = append(child.tids, int32(t))
			node = child
		}
	}
	return root
}

// generatePotentials implements Algorithms 5 and 6: walk to the deepest
// nodes with transaction lists longer than one, then walk back toward the
// root creating one potential pattern per equal-count path segment,
// coloring nodes so shared prefixes are emitted once. A pattern's items are
// its full root path; its frequency is its deepest node's count.
func generatePotentials(root *trieNode, rows [][]int32, u Utility) []Potential {
	var out []Potential
	var mark func(n *trieNode)
	mark = func(n *trieNode) {
		for n != nil && n.parent != nil {
			if n.colored || n.count() < 2 {
				return
			}
			c := n.count()
			items := pathItems(n)
			if len(items) >= 2 {
				out = append(out, Potential{
					Items:   items,
					Tids:    n.tids,
					Utility: utilityOf(u, items, n.tids, rows),
				})
			}
			// Color the equal-count segment and continue from above it.
			for n != nil && n.parent != nil && n.count() == c {
				n.colored = true
				n = n.parent
			}
		}
	}
	var walk func(n *trieNode)
	walk = func(n *trieNode) {
		deepest := true
		for _, item := range slices.Sorted(maps.Keys(n.children)) {
			c := n.children[item]
			if c.count() > 1 {
				deepest = false
				walk(c)
			}
		}
		if deepest && n.parent != nil && n.count() > 1 {
			mark(n)
		}
	}
	walk(root)
	sort.Slice(out, func(a, b int) bool {
		if out[a].Utility != out[b].Utility {
			return out[a].Utility > out[b].Utility
		}
		if len(out[a].Items) != len(out[b].Items) {
			return len(out[a].Items) > len(out[b].Items)
		}
		return lessInt32(out[a].Items, out[b].Items)
	})
	return out
}

// pathItems returns the sorted full root path of n.
func pathItems(n *trieNode) []int32 {
	var items []int32
	for m := n; m != nil && m.parent != nil; m = m.parent {
		items = append(items, m.item)
	}
	sort.Slice(items, func(a, b int) bool { return items[a] < items[b] })
	return items
}

// utilityOf evaluates the chosen utility function for a candidate.
func utilityOf(u Utility, items []int32, tids []int32, rows [][]int32) float64 {
	switch u {
	case RC:
		var s float64
		for _, t := range tids {
			if l := len(rows[t]); l > 0 {
				s += float64(len(items)) / float64(l)
			}
		}
		return s
	default:
		return float64(len(items)-1) * float64(len(tids)-1)
	}
}

func lessInt32(a, b []int32) bool {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}
