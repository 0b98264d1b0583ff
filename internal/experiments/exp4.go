package experiments

import (
	"fmt"
	"io"
	"time"

	"plasmahd/internal/core"
	"plasmahd/internal/dataset"
	"plasmahd/internal/itemset"
	"plasmahd/internal/lam"
	"plasmahd/internal/viz"
)

func init() {
	register("E4.1", "Fig 4.4 (LAM5 phase breakdown, Area vs RC)", e41PhaseBreakdown)
	register("E4.2", "Fig 4.5 (LAM5 compression by utility)", e42UtilityCompression)
	register("E4.3", "Figs 4.6-4.7 (LAM vs Krimp-style vs closed-cover)", e43Compressors)
	register("E4.4", "Fig 4.8 (baseline on sampled data)", e44SampledBaseline)
	register("E4.5", "Fig 4.9 (compressed-analytics classification)", e45Classification)
	register("E4.6", "Figs 4.10-4.11 (LAM vs closed itemsets)", e46ClosedComparison)
	register("E4.7", "Fig 4.12 + Tbl 4.5 (PLAM scalability, per-pass ratios)", e47PLAMScaling)
	register("E4.8", "Fig 4.13 (pattern length vs cumulative compression)", e48LengthCompression)
	register("E4.9", "Fig 4.14 + Tbl 4.6 (compressibility across thresholds)", e49CompressThresholds)
}

func transDB(name string, def, scale int, seed int64) (*itemset.DB, *dataset.Transactions, error) {
	tr, err := dataset.NewTransactionsScaled(name, capped(def, scale), seed)
	if err != nil {
		return nil, nil, err
	}
	return itemset.FromRows(tr.Rows), tr, nil
}

// e41PhaseBreakdown reproduces Fig 4.4: localize vs mine time, Area vs RC.
func e41PhaseBreakdown(w io.Writer, opt Options) error {
	scale, seed := opt.Scale, opt.Seed
	var rows [][]string
	for _, name := range []string{"adult", "mushroom", "kosarak"} {
		db, _, err := transDB(name, 2000, scale, seed)
		if err != nil {
			return err
		}
		var areaTotal time.Duration
		for _, u := range []lam.Utility{lam.Area, lam.RC} {
			p := lam.DefaultParams()
			p.Utility = u
			p.Seed = seed
			res := lam.Mine(db, p)
			total := res.LocalizeTime + res.MineTime
			if u == lam.Area {
				areaTotal = total
			}
			norm := 1.0
			if areaTotal > 0 {
				norm = float64(total) / float64(areaTotal)
			}
			rows = append(rows, []string{name, u.String(),
				fmt.Sprint(res.LocalizeTime.Round(time.Microsecond)),
				fmt.Sprint(res.MineTime.Round(time.Microsecond)),
				viz.F(norm)})
		}
	}
	fmt.Fprintln(w, "Fig 4.4: LAM5 phase breakdown (runtime normalized to Area)")
	viz.Table(w, []string{"dataset", "utility", "localize", "mine", "norm. total"}, rows)
	fmt.Fprintln(w, "paper: mining dominates; Area is always at least as fast as RC")
	return nil
}

// e42UtilityCompression reproduces Fig 4.5: LAM5 ratios by utility.
func e42UtilityCompression(w io.Writer, opt Options) error {
	scale, seed := opt.Scale, opt.Seed
	var rows [][]string
	for _, name := range []string{"adult", "mushroom", "kosarak"} {
		db, _, err := transDB(name, 2000, scale, seed)
		if err != nil {
			return err
		}
		row := []string{name}
		for _, u := range []lam.Utility{lam.Area, lam.RC} {
			p := lam.DefaultParams()
			p.Utility = u
			p.Seed = seed
			res := lam.Mine(db, p)
			row = append(row, viz.F(res.Ratio))
		}
		rows = append(rows, row)
	}
	fmt.Fprintln(w, "Fig 4.5: LAM5 compression ratio by utility function")
	viz.Table(w, []string{"dataset", "area", "rc"}, rows)
	fmt.Fprintln(w, "paper: differences largely negligible, RC slightly ahead on some sets")
	return nil
}

// krimpSupport picks the Table 4.4 minimum supports, rescaled to stand-in
// row counts.
func krimpSupport(tr *dataset.Transactions) int {
	s := len(tr.Rows) / 50
	if s < 2 {
		s = 2
	}
	return s
}

// e43Compressors reproduces Figs 4.6-4.7: compression ratio and runtime of
// LAM vs the Krimp-style and closed-cover (CDB-style) baselines.
func e43Compressors(w io.Writer, opt Options) error {
	scale, seed := opt.Scale, opt.Seed
	names := []string{"accidents", "adult", "anneal", "breast", "iris",
		"kosarak", "mushroom", "pageblocks", "tictactoe", "twitterwcs"}
	var rows [][]string
	lamWins := 0
	for _, name := range names {
		db, tr, err := transDB(name, 1200, scale, seed)
		if err != nil {
			return err
		}
		p := lam.DefaultParams()
		p.Seed = seed
		t0 := time.Now()
		lamRes := lam.Mine(db, p)
		lamTime := time.Since(t0)

		minsup := krimpSupport(tr)
		t1 := time.Now()
		closed, complete := itemset.MineClosed(db, minsup, 300000)
		cdb := itemset.Cover(db, closed, itemset.OrderArea)
		cdbTime := time.Since(t1)

		t2 := time.Now()
		krimp := itemset.Cover(db, closed, itemset.OrderKrimp)
		krimpTime := time.Since(t2) + cdbTime - cdb.Elapsed // include shared mining cost

		note := ""
		if !complete {
			note = " (candidates capped)"
		}
		rows = append(rows, []string{name,
			viz.F(lamRes.Ratio), viz.F(krimp.Ratio), viz.F(cdb.Ratio),
			fmt.Sprint(lamTime.Round(time.Millisecond)),
			fmt.Sprint(krimpTime.Round(time.Millisecond)),
			fmt.Sprint(cdbTime.Round(time.Millisecond)) + note})
		if lamRes.Ratio >= krimp.Ratio && lamRes.Ratio >= cdb.Ratio {
			lamWins++
		}
	}
	fmt.Fprintln(w, "Figs 4.6-4.7: compression ratio (higher better) and execution time")
	viz.Table(w, []string{"dataset", "LAM5", "Krimp-style", "CDB-style",
		"LAM time", "Krimp time", "CDB time"}, rows)
	fmt.Fprintf(w, "LAM best-or-tied on %d/%d datasets; paper: LAM wins most, baselines win a few small dense sets\n",
		lamWins, len(names))
	return nil
}

// e44SampledBaseline reproduces Fig 4.8: sampling speeds the baseline only
// fractionally while compression drops.
func e44SampledBaseline(w io.Writer, opt Options) error {
	scale, seed := opt.Scale, opt.Seed
	db, tr, err := transDB("adult", 1500, scale, seed)
	if err != nil {
		return err
	}
	var rows [][]string
	for _, frac := range []float64{1.0, 0.7, 0.5, 0.3, 0.1} {
		sub := db.Sample(frac)
		minsup := int(float64(krimpSupport(tr)) * frac)
		if minsup < 2 {
			minsup = 2
		}
		t0 := time.Now()
		closed, _ := itemset.MineClosed(sub, minsup, 300000)
		// Candidates mined on the sample compress the FULL dataset.
		res := itemset.Cover(db, closed, itemset.OrderArea)
		elapsed := time.Since(t0)
		rows = append(rows, []string{viz.F(frac * 100), viz.F(res.Ratio),
			fmt.Sprint(elapsed.Round(time.Millisecond))})
	}
	fmt.Fprintln(w, "Fig 4.8: CDB-style baseline with candidates mined on a sample of adult")
	viz.Table(w, []string{"sample %", "ratio", "time"}, rows)
	fmt.Fprintln(w, "paper: runtime reduces only fractionally while ratio drops — sampling")
	fmt.Fprintln(w, "does not rescue the baselines")
	return nil
}

// e45Classification reproduces Fig 4.9: LAM-based compressed-analytics
// classification accuracy vs a Krimp-style baseline, 10-fold CV.
func e45Classification(w io.Writer, opt Options) error {
	scale, seed := opt.Scale, opt.Seed
	var rows [][]string
	for _, name := range []string{"adult", "anneal", "breast", "iris", "mushroom", "pageblocks", "tictactoe"} {
		db, tr, err := transDB(name, 800, scale, seed)
		if err != nil {
			return err
		}
		if tr.Spec.Classes == 0 {
			continue
		}
		p := lam.DefaultParams()
		p.Passes = 2
		p.Seed = seed
		acc := lam.CrossValidate(db, tr.Labels, p, 5)
		// Majority-class baseline for context.
		counts := map[int]int{}
		maj := 0
		for _, l := range tr.Labels {
			counts[l]++
			maj = max(maj, counts[l])
		}
		rows = append(rows, []string{name, viz.F(acc * 100),
			viz.F(100 * float64(maj) / float64(len(tr.Labels)))})
	}
	fmt.Fprintln(w, "Fig 4.9: compressed-analytics classification (5-fold CV accuracy %)")
	viz.Table(w, []string{"dataset", "LAM classifier", "majority baseline"}, rows)
	fmt.Fprintln(w, "paper: LAM classification on par with Krimp's more nuanced classifier")
	return nil
}

// e46ClosedComparison reproduces Figs 4.10-4.11: LAM vs closed itemsets on
// the EU web graph — runtime across supports and the pattern-length story.
func e46ClosedComparison(w io.Writer, opt Options) error {
	scale, seed := opt.Scale, opt.Seed
	g, err := dataset.NewWebGraphScaled("eu2005", capped(2500, scale), seed)
	if err != nil {
		return err
	}
	db := itemset.FromRows(g.Rows)
	p := lam.DefaultParams()
	p.Seed = seed
	t0 := time.Now()
	lamRes := lam.Mine(db, p)
	lamTime := time.Since(t0)
	lamMaxLen, lamLong := 0, 0
	for _, pat := range lamRes.Patterns {
		if len(pat.Items) > lamMaxLen {
			lamMaxLen = len(pat.Items)
		}
		if len(pat.Items) >= 20 {
			lamLong++
		}
	}
	fmt.Fprintf(w, "LAM5: %v, ratio %.2f, %d patterns, longest %d items, %d patterns ≥20 items\n",
		lamTime.Round(time.Millisecond), lamRes.Ratio, len(lamRes.Patterns), lamMaxLen, lamLong)

	var rows [][]string
	base := len(db.Rows)
	for _, supFrac := range []float64{0.02, 0.01, 0.005} {
		minsup := int(supFrac * float64(base))
		if minsup < 2 {
			minsup = 2
		}
		t1 := time.Now()
		closed, complete := itemset.MineClosed(db, minsup, 300000)
		mineTime := time.Since(t1)
		cov := itemset.Cover(db, closed, itemset.OrderArea)
		maxLen, long := 0, 0
		for _, c := range closed {
			if len(c.Items) > maxLen {
				maxLen = len(c.Items)
			}
			if len(c.Items) >= 20 {
				long++
			}
		}
		note := ""
		if !complete {
			note = " capped"
		}
		rows = append(rows, []string{fmt.Sprint(minsup), fmt.Sprint(len(closed)) + note,
			fmt.Sprint(mineTime.Round(time.Millisecond)),
			fmt.Sprint(cov.Elapsed.Round(time.Millisecond)),
			viz.F(cov.Ratio), fmt.Sprint(maxLen), fmt.Sprint(long)})
	}
	fmt.Fprintln(w, "Figs 4.10-4.11: closed itemsets on the EU stand-in across supports")
	viz.Table(w, []string{"support", "#closed", "mine time", "compress time",
		"ratio", "longest", "#≥20 items"}, rows)
	fmt.Fprintln(w, "paper: closed mining cost explodes as support drops yet misses the long")
	fmt.Fprintln(w, "low-support (link-spam) patterns LAM finds parameter-free")
	return nil
}

// e47PLAMScaling reproduces Fig 4.12 and Table 4.5: worker scaling and
// per-pass compression ratios.
func e47PLAMScaling(w io.Writer, opt Options) error {
	scale, seed := opt.Scale, opt.Seed
	g, err := dataset.NewWebGraphScaled("eu2005", capped(3000, scale), seed)
	if err != nil {
		return err
	}
	db := itemset.FromRows(g.Rows)
	var rows [][]string
	var serial time.Duration
	for _, workers := range []int{1, 2, 4, 8} {
		p := lam.DefaultParams()
		p.Workers = workers
		p.Seed = seed
		t0 := time.Now()
		res := lam.Mine(db, p)
		elapsed := time.Since(t0)
		if workers == 1 {
			serial = elapsed
		}
		speedup := float64(serial) / float64(elapsed)
		rows = append(rows, []string{fmt.Sprint(workers),
			fmt.Sprint(elapsed.Round(time.Millisecond)), viz.F(speedup), viz.F(res.Ratio)})
	}
	fmt.Fprintln(w, "Fig 4.12(1): PLAM worker scaling (speedup limited by available cores)")
	viz.Table(w, []string{"workers", "time", "speedup", "ratio"}, rows)

	p := lam.DefaultParams()
	p.Seed = seed
	res := lam.Mine(db, p)
	rows = rows[:0]
	for i, r := range res.PassRatios {
		rows = append(rows, []string{fmt.Sprint(i + 1), viz.F(r)})
	}
	fmt.Fprintln(w, "Fig 4.12(2): compression ratio by pass")
	viz.Table(w, []string{"pass", "cumulative ratio"}, rows)
	fmt.Fprintf(w, "Table 4.5: %d useful itemsets produced; max dereference depth %d (paper: 1.4-1.5 avg)\n",
		len(res.Patterns), res.MaxDereferenceDepth())
	return nil
}

// e48LengthCompression reproduces Fig 4.13: pattern length vs cumulative
// compression contribution.
func e48LengthCompression(w io.Writer, opt Options) error {
	scale, seed := opt.Scale, opt.Seed
	g, err := dataset.NewWebGraphScaled("uk2006", capped(3000, scale), seed)
	if err != nil {
		return err
	}
	db := itemset.FromRows(g.Rows)
	p := lam.DefaultParams()
	p.Seed = seed
	res := lam.Mine(db, p)
	lengths, cum := res.LengthCompressionCurve()
	if len(cum) == 0 {
		return fmt.Errorf("no patterns consumed")
	}
	total := cum[len(cum)-1]
	var rows [][]string
	for i, l := range lengths {
		pct := 0.0
		if total > 0 {
			pct = 100 * float64(cum[i]) / float64(total)
		}
		rows = append(rows, []string{fmt.Sprint(l), fmt.Sprint(cum[i]), viz.F(pct)})
	}
	fmt.Fprintln(w, "Fig 4.13: pattern length vs cumulative tokens saved (uk2006 stand-in)")
	viz.Table(w, []string{"pattern length", "cumulative saved", "% of total"}, rows)
	fmt.Fprintln(w, "paper: mid-length patterns carry ~half the compression; long patterns add a tail")
	return nil
}

// e49CompressThresholds reproduces Fig 4.14 and Table 4.6: LAM
// compressibility of similarity graphs across thresholds.
func e49CompressThresholds(w io.Writer, opt Options) error {
	scale, seed := opt.Scale, opt.Seed
	names := []string{"twitterlinks", "wikiwords200", "wikiwords500", "orkut", "rcv1", "wikilinks"}
	fmt.Fprintln(w, "Table 4.6 stand-ins and Fig 4.14 compressibility curves")
	for _, name := range names {
		d, err := dataset.NewCorpusScaled(name, capped(700, scale), seed)
		if err != nil {
			return err
		}
		s := core.NewSession(d, opt.Params(), seed)
		grid := core.ThresholdGrid(0.3, 0.9, 7)
		if _, err := s.Probe(grid[0]); err != nil {
			return err
		}
		var rows [][]string
		var ratios []float64
		for _, t := range grid {
			g := s.ThresholdGraph(t)
			// Adjacency lists of the similarity graph form the transactional
			// matrix LAM compresses (§4.6).
			adj := make([][]int, g.N())
			for v := 0; v < g.N(); v++ {
				for _, u := range g.Neighbors(v) {
					adj[v] = append(adj[v], int(u))
				}
			}
			db := itemset.FromRows(adj)
			if db.Size() == 0 {
				rows = append(rows, []string{viz.F(t), "0", "-"})
				ratios = append(ratios, 1)
				continue
			}
			p := lam.DefaultParams()
			p.Seed = seed
			res := lam.Mine(db, p)
			rows = append(rows, []string{viz.F(t), fmt.Sprint(g.M()), viz.F(res.Ratio)})
			ratios = append(ratios, res.Ratio)
		}
		fmt.Fprintf(w, "%s (N=%d, nnz=%d):\n", name, d.N(), d.Nnz())
		viz.Table(w, []string{"threshold", "edges", "compression ratio"}, rows)
		viz.Chart(w, "compressibility vs threshold", grid, map[string][]float64{"ratio": ratios}, 6)
	}
	fmt.Fprintln(w, "paper: ratios always >1; curves are non-monotone with phase shifts that")
	fmt.Fprintln(w, "mark thresholds worth probing further")
	return nil
}
