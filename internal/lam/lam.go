// Package lam implements the Localized Approximate Miner of chapter 4: the
// first linearithmic, parameter-free pattern miner, used by PLASMA-HD as a
// scalable compressibility/clusterability estimator (§4.6 — phase shifts in
// the compression-ratio curve across similarity thresholds mark where
// cohesive clusters form or dissolve).
//
// The miner runs in two phases. Phase 1 (localize.go) groups similar
// transactions by sketching each row with K minwise hashes and sorting rows
// lexicographically by sketch, then cutting the order into partitions of at
// most Chunk rows (Algorithm 3) — the locality step that makes the whole
// miner O(n log n). Phase 2 (trie.go) builds a compact trie per partition
// and repeatedly extracts the highest-utility pattern (Area or RC utility),
// consuming covered rows on the fly (Algorithms 4-6); Passes controls how
// many localize-mine rounds run over the residual database. classify.go
// applies the resulting code table as a nearest-pattern classifier (§4.5).
//
// Concurrency: PLAM (Params.Workers > 1) mines phase-2 partitions on a
// worker pool. Partitions are disjoint row sets, so the parallel run is
// race-free; workers return their patterns unnumbered and Mine hands out
// codes in partition order once the pool has drained, so the result is
// identical for any worker count.
package lam

import (
	"fmt"
	"maps"
	"runtime"
	"slices"
	"sort"
	"time"

	"plasmahd/internal/itemset"
	"plasmahd/internal/par"
)

// Params configures LAM. The zero value is not valid; use DefaultParams.
type Params struct {
	Hashes  int     // K minwise hashes per row (paper: 16)
	Chunk   int     // localization partition threshold (paper: 1000)
	Passes  int     // NumberOfPasses of Algorithm 2 (paper: LAM5 = 5)
	Utility Utility // Area or RC
	Workers int     // PLAM: concurrent partition miners (1 = serial LAM)
	Seed    int64
}

// DefaultParams mirrors the paper's configuration.
func DefaultParams() Params {
	return Params{Hashes: 16, Chunk: 1000, Passes: 5, Utility: Area, Workers: 1, Seed: 1}
}

// Pattern is one consumed (code table) entry: Code is the pointer token that
// replaces Items in covering rows. Items may themselves contain codes from
// earlier consumption, forming the dereference chains of §4.5.4.
type Pattern struct {
	Code  int32
	Items []int32
	Freq  int // rows it was consumed in at creation time
	Pass  int // 1-based pass number
}

// Result is the output of a LAM run.
type Result struct {
	Patterns       []Pattern
	OriginalSize   int
	CompressedSize int
	Ratio          float64
	PassRatios     []float64 // cumulative ratio after each pass (Fig 4.12.2)
	LocalizeTime   time.Duration
	MineTime       time.Duration

	// Rows is the final rewritten database: the original rows (rewritten
	// with code pointers) followed by one code-table row per pattern.
	Rows            [][]int32
	NumOriginalRows int
	NumItems        int // original item universe; tokens >= NumItems are codes
	codeRow         map[int32]int
}

// Mine runs Algorithm 2 on db: Passes rounds of localization and
// mine-consume. db itself is not modified.
func Mine(db *itemset.DB, p Params) *Result {
	if p.Hashes < 1 {
		p.Hashes = 16
	}
	if p.Chunk < 2 {
		p.Chunk = 1000
	}
	if p.Passes < 1 {
		p.Passes = 1
	}
	workers := p.Workers
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}

	work := db.Clone()
	res := &Result{
		OriginalSize:    db.Size(),
		NumOriginalRows: len(db.Rows),
		NumItems:        db.NumItems,
		codeRow:         map[int32]int{},
	}
	nextCode := int32(db.NumItems)

	for pass := 1; pass <= p.Passes; pass++ {
		t0 := time.Now()
		parts := Localize(work.Rows, p.Hashes, p.Chunk, p.Seed+int64(pass)*7919)
		res.LocalizeTime += time.Since(t0)

		t1 := time.Now()
		mined := make([][]minedPattern, len(parts))
		par.For(len(parts), workers, 1, func(pi int) {
			if len(parts[pi]) >= 2 {
				mined[pi] = minePartition(work.Rows, parts[pi], p.Utility, pass)
			}
		})
		res.MineTime += time.Since(t1)

		// Number the patterns and point their rows at them serially, in
		// partition order: codes feed the next pass's localization, so they
		// must not depend on which worker finished first.
		var passPatterns []Pattern
		for _, pats := range mined {
			for _, m := range pats {
				m.Code = nextCode
				nextCode++
				for _, t := range m.hits {
					work.Rows[t] = append(work.Rows[t], m.Code)
				}
				passPatterns = append(passPatterns, m.Pattern)
			}
		}
		for _, pat := range passPatterns {
			res.codeRow[pat.Code] = len(work.Rows)
			work.Rows = append(work.Rows, append([]int32(nil), pat.Items...))
		}
		res.Patterns = append(res.Patterns, passPatterns...)
		size := work.Size()
		ratio := 1.0
		if size > 0 {
			ratio = float64(res.OriginalSize) / float64(size)
		}
		res.PassRatios = append(res.PassRatios, ratio)
	}

	res.Rows = work.Rows
	res.CompressedSize = work.Size()
	if res.CompressedSize > 0 {
		res.Ratio = float64(res.OriginalSize) / float64(res.CompressedSize)
	}
	return res
}

// minedPattern is a consumed pattern that has no code yet, with the rows it
// was consumed in (which still need the code appended).
type minedPattern struct {
	Pattern
	hits []int32
}

// minePartition is Algorithm 4 (MineConsumePhase) on one partition: build
// the trie, generate the utility-ordered potential list, and consume
// fruitful patterns, removing their items from the partition's rows in
// place. Partitions are disjoint row sets, so concurrent calls never touch
// the same row.
func minePartition(rows [][]int32, part []int, u Utility, pass int) []minedPattern {
	root := buildTrie(rows, part)
	potentials := generatePotentials(root, rows, u)
	var out []minedPattern
	for _, pot := range potentials {
		// Recompute actual coverage against the (possibly rewritten) rows.
		hits := pot.Tids[:0:0]
		for _, t := range pot.Tids {
			if itemset.ContainsSorted(rows[t], pot.Items) {
				hits = append(hits, t)
			}
		}
		f, l := len(hits), len(pot.Items)
		// Fruitful only if replacing f·l tokens with f pointers plus the
		// l-token code row shrinks the data.
		if f*l <= f+l {
			continue
		}
		for _, t := range hits {
			rows[t] = removeSubsetSorted(rows[t], pot.Items)
		}
		out = append(out, minedPattern{Pattern{Items: pot.Items, Freq: f, Pass: pass}, hits})
	}
	return out
}

// removeSubsetSorted removes sorted subset sub from sorted row in place.
func removeSubsetSorted(row, sub []int32) []int32 {
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

// Decompress expands row i of the original database back to its item set,
// following code pointers through the final code-table rows. It returns an
// error on a dangling or cyclic code, neither of which a correct run can
// produce.
func (r *Result) Decompress(i int) ([]int32, error) {
	if i < 0 || i >= r.NumOriginalRows {
		return nil, fmt.Errorf("lam: row %d out of range (%d original rows)", i, r.NumOriginalRows)
	}
	var out []int32
	visiting := map[int32]bool{}
	var expand func(row []int32) error
	expand = func(row []int32) error {
		for _, tok := range row {
			if int(tok) < r.NumItems {
				out = append(out, tok)
				continue
			}
			if visiting[tok] {
				return fmt.Errorf("lam: cyclic code %d", tok)
			}
			ri, ok := r.codeRow[tok]
			if !ok {
				return fmt.Errorf("lam: dangling code %d", tok)
			}
			visiting[tok] = true
			if err := expand(r.Rows[ri]); err != nil {
				return err
			}
			delete(visiting, tok)
		}
		return nil
	}
	if err := expand(r.Rows[i]); err != nil {
		return nil, err
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out, nil
}

// MaxDereferenceDepth returns the deepest code-pointer chain across the
// original rows — the §4.5.4 "dereferences to fully list the original
// items" statistic.
func (r *Result) MaxDereferenceDepth() int {
	memo := map[int32]int{}
	var depth func(tok int32) int
	depth = func(tok int32) int {
		if int(tok) < r.NumItems {
			return 0
		}
		if d, ok := memo[tok]; ok {
			return d
		}
		memo[tok] = 0 // cycle guard
		best := 0
		if ri, ok := r.codeRow[tok]; ok {
			for _, t := range r.Rows[ri] {
				if d := depth(t); d > best {
					best = d
				}
			}
		}
		memo[tok] = best + 1
		return best + 1
	}
	max := 0
	for i := 0; i < r.NumOriginalRows; i++ {
		for _, tok := range r.Rows[i] {
			if d := depth(tok); d > max {
				max = d
			}
		}
	}
	return max
}

// LengthCompressionCurve returns, for each pattern length L (ascending),
// the cumulative tokens saved by patterns of length <= L — the Fig 4.13
// "pattern length vs cumulative compression" series. Savings per pattern
// are (Freq·L - Freq - L) tokens.
func (r *Result) LengthCompressionCurve() (lengths []int, cumSaved []int64) {
	byLen := map[int]int64{}
	for _, p := range r.Patterns {
		l := len(p.Items)
		byLen[l] += int64(p.Freq*l - p.Freq - l)
	}
	lengths = slices.Sorted(maps.Keys(byLen))
	var acc int64
	for _, l := range lengths {
		acc += byLen[l]
		cumSaved = append(cumSaved, acc)
	}
	return lengths, cumSaved
}
