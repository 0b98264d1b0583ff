// Quickstart: probe a dataset with PLASMA-HD in a dozen lines.
//
// A session sketches the data once, probes it at a similarity threshold,
// and then answers questions about *every other* threshold from the
// knowledge cache: the cumulative APSS curve, a suggested next probe, and
// triangle-based clusterability cues.
//
// The probe engine shards candidate evaluation across Params.Workers
// goroutines (0 = all cores) with byte-identical results for any count —
// the knob the CLIs and plasmad expose as -workers. Sessions are safe for
// concurrent probes; see examples/serverclient for the multi-client HTTP
// version of this walkthrough.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"os"

	"plasmahd/internal/bayeslsh"
	"plasmahd/internal/core"
	"plasmahd/internal/dataset"
	"plasmahd/internal/viz"
)

func main() {
	// The wine table of Table 2.1: 178 points, 13 attributes, 3 classes.
	tab, err := dataset.NewTable("wine", 1)
	if err != nil {
		log.Fatal(err)
	}
	ds := tab.Dataset()

	// Workers = 0 parallelizes the probe across all cores; any other value
	// returns the same pairs, only wall time changes.
	params := bayeslsh.DefaultParams()
	params.Workers = 0
	session := core.NewSession(ds, params, 1)
	fmt.Printf("dataset %s: %d rows, sketched in %v\n", ds.Name, ds.N(), session.SketchTime())

	// Probe once at 0.8 — the only pass over the data.
	res, err := session.Probe(0.8)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("probe t=0.8: %d similar pairs, %d candidates, %d pruned by Eq 2.1\n",
		len(res.Pairs), res.Candidates, res.Pruned)

	// Everything below is served from the knowledge cache.
	grid := core.ThresholdGrid(0.5, 0.95, 10)
	curve := session.CumulativeAPSS(grid)
	var rows [][]string
	for _, p := range curve {
		rows = append(rows, []string{viz.F(p.Threshold), viz.F(p.Estimate), viz.F(p.ErrBar)})
	}
	viz.Table(os.Stdout, []string{"threshold", "est #pairs", "errbar"}, rows)

	fmt.Printf("suggested next probe (curve knee): %.2f\n", core.FindKnee(curve))
	fmt.Printf("triangles at t=0.9: %d (clusterability cue of Fig 2.5)\n",
		session.CueSet(0.9).Triangles())
}
