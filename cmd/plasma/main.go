// Command plasma is the interactive PLASMA-HD probing shell — the
// stdin/stdout stand-in for the paper's visual front end. A session loads a
// dataset, probes it at chosen similarity thresholds, and inspects the
// cumulative APSS curve, knee suggestions, and triangle cues, all served
// from the knowledge cache.
//
// Usage:
//
//	plasma -data wine
//	plasma -data twitter -rows 800
//
// Commands inside the shell:
//
//	probe <t>    run an all-pairs probe at threshold t
//	curve        print the cumulative APSS curve with error bars
//	knee         suggest the next threshold to probe
//	cues <t>     triangle count, histogram, and density profile at t
//	stats        session statistics (probes, cache, timings)
//	help / quit
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"plasmahd/internal/bayeslsh"
	"plasmahd/internal/core"
	"plasmahd/internal/dataset"
	"plasmahd/internal/vec"
	"plasmahd/internal/viz"
)

func loadDataset(name string, rows int, seed int64) (*vec.Dataset, error) {
	if tab, err := dataset.NewTableScaled(name, rows, seed); err == nil {
		return tab.Dataset(), nil
	}
	if d, err := dataset.NewCorpusScaled(name, rows, seed); err == nil {
		return d, nil
	}
	if name == "toy" || name == "d1" {
		return dataset.Toy50(seed).Dataset(), nil
	}
	return nil, fmt.Errorf("unknown dataset %q (tables: %v; corpora: %v; plus \"toy\")",
		name, dataset.TableNames(), dataset.CorpusNames())
}

func main() {
	var (
		data    = flag.String("data", "wine", "dataset name")
		rows    = flag.Int("rows", 0, "cap dataset rows (0 = full)")
		seed    = flag.Int64("seed", 1, "generator seed")
		workers = flag.Int("workers", 0, "probe-engine worker count (0 = all cores)")
	)
	flag.Parse()

	ds, err := loadDataset(*data, *rows, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	fmt.Printf("PLASMA-HD: %s (%d rows, dim %d, %s similarity)\n",
		ds.Name, ds.N(), ds.Dim, ds.Measure)
	params := bayeslsh.DefaultParams()
	params.Workers = *workers
	session := core.NewSession(ds, params, *seed)
	fmt.Printf("sketches built in %v — type 'help' for commands\n",
		session.SketchTime().Round(time.Millisecond))

	sc := bufio.NewScanner(os.Stdin)
	for {
		fmt.Print("plasma> ")
		if !sc.Scan() {
			fmt.Println()
			return
		}
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 {
			continue
		}
		cmd := fields[0]
		arg := func() (float64, bool) {
			if len(fields) < 2 {
				fmt.Println("need a threshold argument, e.g.:", cmd, "0.8")
				return 0, false
			}
			t, err := strconv.ParseFloat(fields[1], 64)
			if err != nil || t < -1 || t > 1 {
				fmt.Println("threshold must be a number in [-1, 1]")
				return 0, false
			}
			return t, true
		}
		switch cmd {
		case "quit", "exit", "q":
			return
		case "help":
			fmt.Println("probe <t> | curve | knee | cues <t> | stats | quit")
		case "probe":
			t, ok := arg()
			if !ok {
				continue
			}
			res, err := session.Probe(t)
			if err != nil {
				fmt.Println("probe failed:", err)
				continue
			}
			fmt.Printf("t=%.3f: %d similar pairs (%d candidates, %d pruned, %d cache hits) in %v\n",
				t, len(res.Pairs), res.Candidates, res.Pruned, res.CacheHits,
				res.ProcessTime.Round(time.Millisecond))
		case "curve":
			grid := core.ThresholdGrid(0.3, 0.95, 14)
			pts := session.CumulativeAPSS(grid)
			var rows [][]string
			est := make([]float64, len(pts))
			for i, p := range pts {
				est[i] = p.Estimate
				rows = append(rows, []string{viz.F(p.Threshold), viz.F(p.Estimate), viz.F(p.ErrBar)})
			}
			viz.Table(os.Stdout, []string{"t", "est #pairs", "errbar"}, rows)
			viz.Chart(os.Stdout, "cumulative APSS", grid, map[string][]float64{"est": est}, 8)
		case "knee":
			grid := core.ThresholdGrid(0.3, 0.95, 14)
			fmt.Printf("suggested next threshold: %.3f\n", core.FindKnee(session.CumulativeAPSS(grid)))
		case "cues":
			t, ok := arg()
			if !ok {
				continue
			}
			cs := session.CueSet(t)
			fmt.Printf("triangles: %d\n", cs.Triangles())
			h := cs.TriangleHistogram(8)
			var rows [][]string
			for i, c := range h.Counts {
				rows = append(rows, []string{viz.F(h.BinCenter(i)), fmt.Sprint(c)})
			}
			viz.Table(os.Stdout, []string{"triangles/vertex", "vertices"}, rows)
			top := cs.DensityProfile()
			if len(top) > 20 {
				top = top[:20]
			}
			fmt.Printf("density profile (top cores): %v\n", top)
		case "stats":
			fmt.Printf("probes: %d, cached pairs: %d, sketch time %v, processing %v\n",
				session.ProbeCount(), session.Cache.Pairs.Len(),
				session.SketchTime().Round(time.Millisecond),
				session.ProcessTime().Round(time.Millisecond))
		default:
			fmt.Println("unknown command; try 'help'")
		}
	}
}
