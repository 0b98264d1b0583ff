package lam

import (
	"maps"
	"slices"
	"sort"

	"plasmahd/internal/itemset"
)

// Classifier is the CBA-style compressed-analytics classifier of §4.4.6:
// LAM patterns are mined per class split, pruned to the discriminative
// core, and a test row is assigned the class whose pattern set it most
// overlaps.
type Classifier struct {
	NumItems     int
	Classes      []ClassModel
	DefaultClass int
}

// ClassModel holds one class's discriminative patterns (expanded to base
// items so subset tests run against raw transactions).
type ClassModel struct {
	Label    int
	Patterns [][]int32
}

// TrainClassifier mines each class split with LAM and keeps the patterns
// whose within-class support rate clearly exceeds their rate elsewhere
// (the "universally effective patterns are filtered" pruning step).
func TrainClassifier(db *itemset.DB, labels []int, p Params) *Classifier {
	classRows := map[int][][]int32{}
	for i, row := range db.Rows {
		classRows[labels[i]] = append(classRows[labels[i]], row)
	}
	classes := slices.Sorted(maps.Keys(classRows))

	// Majority class is the CBA default.
	def, defCount := 0, -1
	for _, c := range classes {
		if len(classRows[c]) > defCount {
			def, defCount = c, len(classRows[c])
		}
	}

	clf := &Classifier{NumItems: db.NumItems, DefaultClass: def}
	for _, c := range classes {
		sub := &itemset.DB{Rows: classRows[c], NumItems: db.NumItems}
		res := Mine(sub.Clone(), p)
		model := ClassModel{Label: c}
		seen := map[string]bool{}
		for _, pat := range res.Patterns {
			items := expandPattern(res, pat.Items)
			if len(items) < 2 {
				continue
			}
			k := keyOf(items)
			if seen[k] {
				continue
			}
			seen[k] = true
			// Discrimination check: the pattern must be clearly more common
			// in its own class than in the rest of the data.
			own := supportRate(classRows[c], items)
			var rest, restN float64
			for _, o := range classes {
				if o == c {
					continue
				}
				rest += float64(supportRate(classRows[o], items) * float64(len(classRows[o])))
				restN += float64(len(classRows[o]))
			}
			if restN > 0 {
				rest /= restN
			}
			if own > float64(1.5*rest)+0.01 {
				model.Patterns = append(model.Patterns, items)
			}
		}
		clf.Classes = append(clf.Classes, model)
	}
	return clf
}

// expandPattern resolves code pointers inside a pattern body to base items.
func expandPattern(res *Result, items []int32) []int32 {
	var out []int32
	var expand func(tok int32)
	expand = func(tok int32) {
		if int(tok) < res.NumItems {
			out = append(out, tok)
			return
		}
		for _, p := range res.Patterns {
			if p.Code == tok {
				for _, t := range p.Items {
					expand(t)
				}
				return
			}
		}
	}
	for _, t := range items {
		expand(t)
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	// Dedup defensively.
	dedup := out[:0]
	var prev int32 = -1
	for _, t := range out {
		if t != prev {
			dedup = append(dedup, t)
			prev = t
		}
	}
	return dedup
}

func keyOf(items []int32) string {
	b := make([]byte, 0, len(items)*4)
	for _, it := range items {
		b = append(b, byte(it), byte(it>>8), byte(it>>16), byte(it>>24))
	}
	return string(b)
}

func supportRate(rows [][]int32, items []int32) float64 {
	if len(rows) == 0 {
		return 0
	}
	c := 0
	for _, r := range rows {
		if itemset.ContainsSorted(r, items) {
			c++
		}
	}
	return float64(c) / float64(len(rows))
}

// Predict assigns the class whose pattern set the row most overlaps
// (fraction of class patterns contained in the row); rows matching no
// pattern get the default class, as in CBA.
func (c *Classifier) Predict(row []int32) int {
	best, bestScore := c.DefaultClass, 0.0
	for _, m := range c.Classes {
		if len(m.Patterns) == 0 {
			continue
		}
		hit := 0
		for _, p := range m.Patterns {
			if itemset.ContainsSorted(row, p) {
				hit++
			}
		}
		score := float64(hit) / float64(len(m.Patterns))
		if score > bestScore {
			best, bestScore = m.Label, score
		}
	}
	return best
}

// CrossValidate runs k-fold cross validation and returns the accuracy —
// the Fig 4.9 protocol (paper: 10-fold).
func CrossValidate(db *itemset.DB, labels []int, p Params, folds int) float64 {
	if folds < 2 {
		folds = 10
	}
	n := len(db.Rows)
	correct, total := 0, 0
	for f := 0; f < folds; f++ {
		var trainRows [][]int32
		var trainLabels []int
		var testRows [][]int32
		var testLabels []int
		for i := 0; i < n; i++ {
			if i%folds == f {
				testRows = append(testRows, db.Rows[i])
				testLabels = append(testLabels, labels[i])
			} else {
				trainRows = append(trainRows, db.Rows[i])
				trainLabels = append(trainLabels, labels[i])
			}
		}
		if len(trainRows) == 0 || len(testRows) == 0 {
			continue
		}
		sub := &itemset.DB{Rows: trainRows, NumItems: db.NumItems}
		clf := TrainClassifier(sub, trainLabels, p)
		for i, row := range testRows {
			if clf.Predict(row) == testLabels[i] {
				correct++
			}
			total++
		}
	}
	if total == 0 {
		return 0
	}
	return float64(correct) / float64(total)
}
