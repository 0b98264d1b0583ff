package experiments

import (
	"fmt"
	"io"
	"time"

	"plasmahd/internal/core"
	"plasmahd/internal/dataset"
	"plasmahd/internal/vec"
	"plasmahd/internal/viz"
)

func init() {
	register("E2.1", "Table 2.1 (datasets)", e21Datasets)
	register("E2.2", "Fig 2.2 (toy threshold sweep)", e22Toy)
	register("E2.3", "Figs 2.3-2.4 (cumulative APSS + interactive scenario)", e23Interactive)
	register("E2.4", "Fig 2.5 (triangle cues)", e24TriangleCues)
	register("E2.5", "Figs 2.6-2.8 (incremental estimates)", e25Incremental)
	register("E2.6", "Fig 2.9 (sketch time proportion)", e26SketchProportion)
	register("E2.7", "Fig 2.10 (knowledge caching)", e27KnowledgeCaching)
}

// e21Datasets prints the Table 2.1 inventory for the synthetic stand-ins.
func e21Datasets(w io.Writer, opt Options) error {
	scale, seed := opt.Scale, opt.Seed
	var rows [][]string
	for _, name := range []string{"wine", "credit"} {
		tab, err := dataset.NewTableScaled(name, capped(0, scale), seed)
		if err != nil {
			return err
		}
		d := tab.Dataset()
		rows = append(rows, []string{name, fmt.Sprint(d.N()), fmt.Sprint(tab.Spec.Dims),
			viz.F(d.AvgLen()), fmt.Sprint(d.Nnz())})
	}
	for _, name := range []string{"twitter", "rcv1"} {
		d, err := dataset.NewCorpusScaled(name, capped(0, scale), seed)
		if err != nil {
			return err
		}
		rows = append(rows, []string{name, fmt.Sprint(d.N()), fmt.Sprint(d.Dim),
			viz.F(d.AvgLen()), fmt.Sprint(d.Nnz())})
	}
	viz.Table(w, []string{"Dataset", "Vectors", "Dim", "Avg.len", "Nnz"}, rows)
	return nil
}

// e22Toy reproduces the Fig 2.2 reading: on the 50-point toy dataset the
// middle threshold reveals community structure, the high one under-connects
// and the low one over-connects.
func e22Toy(w io.Writer, opt Options) error {
	seed := opt.Seed
	toy := dataset.Toy50(seed)
	ds := toy.Dataset()
	s := core.NewSession(ds, opt.Params(), seed)
	if _, err := s.Probe(0.2); err != nil {
		return err
	}
	var rows [][]string
	for _, t := range []float64{0.995, 0.95, 0.2} {
		g := s.ThresholdGraph(t)
		intra, cov := core.CommunityClarity(g, toy.Labels)
		_, comps := g.ConnectedComponents()
		rows = append(rows, []string{viz.F(t), fmt.Sprint(g.M()), fmt.Sprint(comps),
			viz.F(intra), viz.F(cov)})
	}
	fmt.Fprintln(w, "Fig 2.2 toy dataset d1: the middle threshold maximizes intra-community")
	fmt.Fprintln(w, "fraction with full coverage; high isolates, low swamps.")
	viz.Table(w, []string{"t1", "edges", "components", "intra-frac", "covered-frac"}, rows)
	return nil
}

// e23Interactive reproduces the §2.2.2 scenario and Figs 2.3-2.4 curves.
func e23Interactive(w io.Writer, opt Options) error {
	seed := opt.Seed
	toy := dataset.Toy50(seed)
	grid := core.ThresholdGrid(0.5, 0.99, 11)
	sc, err := core.RunInteractiveScenario(toy.Dataset(), opt.Params(), 0.95, grid, seed)
	if err != nil {
		return err
	}
	var rows [][]string
	est := make([]float64, len(grid))
	truth := make([]float64, len(grid))
	for k := range grid {
		est[k] = sc.Curve[k].Estimate
		truth[k] = float64(sc.TruthCurve[k])
		rows = append(rows, []string{viz.F(grid[k]), viz.F(sc.Curve[k].Estimate),
			viz.F(sc.Curve[k].ErrBar), fmt.Sprint(sc.TruthCurve[k])})
	}
	viz.Table(w, []string{"t", "estimate", "errbar", "truth"}, rows)
	viz.Chart(w, "Cumulative APSS (Figs 2.3-2.4)", grid,
		map[string][]float64{"estimate": est, "truth": truth}, 10)
	fmt.Fprintf(w, "first probe t=%.2f, knee probe t=%.2f\n", sc.FirstThreshold, sc.KneeThreshold)
	fmt.Fprintf(w, "two-probe time %v vs brute-force sweep %v: %.0f%% savings (paper: 83%%)\n",
		sc.TwoProbeTime.Round(time.Microsecond), sc.BruteForceTime.Round(time.Microsecond), sc.SavingsPct)
	return nil
}

// e24TriangleCues reproduces Fig 2.5 on the wine stand-in.
func e24TriangleCues(w io.Writer, opt Options) error {
	scale, seed := opt.Scale, opt.Seed
	tab, err := dataset.NewTableScaled("wine", capped(0, scale), seed)
	if err != nil {
		return err
	}
	s := core.NewSession(tab.Dataset(), opt.Params(), seed)
	if _, err := s.Probe(0.7); err != nil {
		return err
	}
	grid := core.ThresholdGrid(0.7, 0.99, 8)
	var rows [][]string
	for _, t := range grid {
		rows = append(rows, []string{viz.F(t), fmt.Sprint(s.CueSet(t).Triangles())})
	}
	fmt.Fprintln(w, "Fig 2.5a: triangle count across thresholds")
	viz.Table(w, []string{"t", "triangles"}, rows)

	cs := s.CueSet(0.9)
	hist := cs.TriangleHistogram(10)
	rows = rows[:0]
	for i, c := range hist.Counts {
		rows = append(rows, []string{viz.F(hist.BinCenter(i)), fmt.Sprint(c)})
	}
	fmt.Fprintln(w, "Fig 2.5b: triangle vertex-cover histogram at t=0.9")
	viz.Table(w, []string{"triangles/vertex", "vertices"}, rows)

	prof := cs.DensityProfile()
	fmt.Fprintln(w, "Fig 2.5c: density profile (sorted core numbers) at t=0.9; flat")
	fmt.Fprintln(w, "high plateaus indicate potential cliques")
	profF := make([]float64, len(prof))
	xs := make([]float64, len(prof))
	for i, v := range prof {
		profF[i] = float64(v)
		xs[i] = float64(i)
	}
	viz.Chart(w, "density profile", xs, map[string][]float64{"core": profF}, 8)
	return nil
}

// e25Incremental reproduces Figs 2.6-2.8: estimates converge after a small
// fraction of the data.
func e25Incremental(w io.Writer, opt Options) error {
	scale, seed := opt.Scale, opt.Seed
	type job struct {
		name    string
		t1      float64
		targets []float64
		ds      *vec.Dataset
	}
	wine, err := dataset.NewTableScaled("wine", capped(0, scale), seed)
	if err != nil {
		return err
	}
	twitter, err := dataset.NewCorpusScaled("twitter", capped(800, scale), seed)
	if err != nil {
		return err
	}
	rcv1, err := dataset.NewCorpusScaled("rcv1", capped(1000, scale), seed)
	if err != nil {
		return err
	}
	jobs := []job{
		{"wine (Fig 2.6)", 0.5, []float64{0.75, 0.80, 0.85}, wine.Dataset()},
		{"twitter (Fig 2.7)", 0.95, []float64{0.75, 0.80, 0.85, 0.95}, twitter},
		{"rcv1 (Fig 2.8)", 0.90, []float64{0.50, 0.90, 0.95}, rcv1},
	}
	for _, j := range jobs {
		s := core.NewSession(j.ds, opt.Params(), seed)
		snaps, err := s.ProbeIncremental(j.t1, j.targets, 10)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%s: incremental #pairs estimates for t1=%.2f\n", j.name, j.t1)
		headers := []string{"% processed"}
		for _, t2 := range j.targets {
			headers = append(headers, fmt.Sprintf("est t2=%.2f", t2))
		}
		var rows [][]string
		for _, sn := range snaps {
			row := []string{viz.F(sn.PercentProcessed)}
			for _, t2 := range j.targets {
				row = append(row, viz.F(sn.Estimates[t2]))
			}
			rows = append(rows, row)
		}
		viz.Table(w, headers, rows)
		// Convergence summary: first snapshot within 10% of the final value.
		final := snaps[len(snaps)-1]
		for _, t2 := range j.targets {
			fin := final.Estimates[t2]
			if fin == 0 {
				continue
			}
			conv := 100.0
			for _, sn := range snaps {
				if diff := sn.Estimates[t2] - fin; diff < 0.1*fin && diff > -0.1*fin {
					conv = sn.PercentProcessed
					break
				}
			}
			fmt.Fprintf(w, "  t2=%.2f converged to ±10%% of final by %.0f%% of data\n", t2, conv)
		}
	}
	return nil
}

// e26SketchProportion reproduces Fig 2.9: initial sketch time vs processing.
func e26SketchProportion(w io.Writer, opt Options) error {
	scale, seed := opt.Scale, opt.Seed
	var rows [][]string
	for _, name := range []string{"rcv1_3k", "twitterlinks", "wikiwords100k", "wikilinks"} {
		d, err := dataset.NewCorpusScaled(name, capped(800, scale), seed)
		if err != nil {
			return err
		}
		s := core.NewSession(d, opt.Params(), seed)
		res, err := s.Probe(0.9)
		if err != nil {
			return err
		}
		total := s.SketchTime() + res.ProcessTime
		pct := 0.0
		if total > 0 {
			pct = 100 * float64(s.SketchTime()) / float64(total)
		}
		rows = append(rows, []string{name, fmt.Sprint(s.SketchTime().Round(time.Microsecond)),
			fmt.Sprint(res.ProcessTime.Round(time.Microsecond)), viz.F(pct)})
	}
	fmt.Fprintln(w, "Fig 2.9: initial sketch generation vs probe processing time")
	viz.Table(w, []string{"dataset", "sketch", "processing", "sketch %"}, rows)
	fmt.Fprintln(w, "knowledge caching removes the sketch start-up cost from every probe after the first")
	return nil
}

// e27KnowledgeCaching reproduces Fig 2.10: the .95→.70 workload with and
// without the knowledge cache.
func e27KnowledgeCaching(w io.Writer, opt Options) error {
	scale, seed := opt.Scale, opt.Seed
	d, err := dataset.NewCorpusScaled("twitter", capped(800, scale), seed)
	if err != nil {
		return err
	}
	steps, err := core.KnowledgeCachingWorkload(d, opt.Params(),
		[]float64{0.95, 0.90, 0.85, 0.80, 0.75, 0.70}, seed)
	if err != nil {
		return err
	}
	var rows [][]string
	for _, st := range steps {
		rows = append(rows, []string{viz.F(st.Threshold),
			fmt.Sprint(st.UncachedHashes), fmt.Sprint(st.CachedHashes),
			fmt.Sprint(st.UncachedTime.Round(time.Microsecond)),
			fmt.Sprint(st.CachedTime.Round(time.Microsecond)),
			viz.F(st.SpeedupPct)})
	}
	fmt.Fprintln(w, "Fig 2.10: APSS workload .95→.70, with vs without knowledge caching")
	viz.Table(w, []string{"t", "hashes (cold)", "hashes (cached)", "time (cold)", "time (cached)", "savings %"}, rows)
	fmt.Fprintln(w, "paper reports 0% at the first threshold then 16-29% savings")
	fmt.Fprintln(w, "beyond the paper's figure: stored evidence is tested against each new threshold's prune bound before any hash is compared, so only the pairs that survive the bound resume hashing")
	return nil
}
