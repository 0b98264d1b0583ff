package experiments

import (
	"fmt"
	"io"
	"time"

	"plasmahd/internal/cluster"
	"plasmahd/internal/dataset"
	"plasmahd/internal/pcoord"
	"plasmahd/internal/viz"
)

func init() {
	register("E5.1", "Tables 5.1-5.2 (dimension ordering + convergence)", e51OrderingTimes)
	register("E5.2", "Figs 5.4-5.10 (crossing reduction + SVGs)", e52EnergyReduction)
}

// pcoordDatasets are the Table 5.1 stand-ins with their Figs 5.4-5.10
// cluster counts.
var pcoordDatasets = []struct {
	name string
	k    int
}{
	{"forestfires", 6},
	{"water-treatment", 3},
	{"wdbc", 4},
	{"parkinsons", 4},
	{"pima", 10},
	{"winepc", 4},
	{"eighthr", 2},
}

// e51OrderingTimes reproduces Table 5.2: approximate vs exact ordering
// times plus energy-reduction convergence time and iteration counts at
// α=β=γ=1/3.
func e51OrderingTimes(w io.Writer, opt Options) error {
	scale, seed := opt.Scale, opt.Seed
	var rows [][]string
	for _, d := range pcoordDatasets {
		tab, err := dataset.NewTableScaled(d.name, capped(400, scale), seed)
		if err != nil {
			return err
		}
		pcoord.NormalizeColumns(tab.X)
		cmp := pcoord.CompareOrderings(tab.X)

		km := cluster.KMeans(tab.X, d.k, 30, seed)
		// Energy reduction across every adjacent pair of the approximate
		// ordering; Table 5.2 reports total time and max iterations.
		t0 := time.Now()
		maxIter := 0
		order := cmp.ApproxOrder
		for pos := 0; pos+1 < len(order); pos++ {
			left := pcoord.Column(tab.X, order[pos])
			right := pcoord.Column(tab.X, order[pos+1])
			res := pcoord.ReduceEnergy(left, right, km.Assign, d.k, pcoord.DefaultEnergyParams())
			if res.Iterations > maxIter {
				maxIter = res.Iterations
			}
		}
		converge := time.Since(t0)

		exactTime := "-"
		if cmp.ExactOrder != nil {
			exactTime = fmt.Sprint(cmp.ExactTime.Round(time.Microsecond))
		}
		rows = append(rows, []string{
			d.name,
			fmt.Sprint(len(tab.X)), fmt.Sprint(tab.Spec.Dims), fmt.Sprint(d.k),
			fmt.Sprint(cmp.ApproxTime.Round(time.Microsecond)),
			exactTime,
			fmt.Sprint(converge.Round(time.Microsecond)),
			fmt.Sprint(maxIter),
		})
	}
	fmt.Fprintln(w, "Tables 5.1-5.2: order-ap / order-ex / converge / iter (α=β=γ=1/3)")
	viz.Table(w, []string{"dataset", "points", "dims", "clusters",
		"order-ap", "order-ex", "converge", "iter"}, rows)
	fmt.Fprintln(w, "paper: the approximation orders in ~ms even where exact ordering is")
	fmt.Fprintln(w, "seconds; energy reduction converges in tens of iterations")
	return nil
}

// e52EnergyReduction reproduces the Figs 5.4-5.10 reading quantitatively:
// crossing reduction from reordering and the de-cluttering effect of energy
// reduction (within-cluster spread shrink at assistant coordinates).
func e52EnergyReduction(w io.Writer, opt Options) error {
	scale, seed := opt.Scale, opt.Seed
	var rows [][]string
	for _, d := range pcoordDatasets {
		tab, err := dataset.NewTableScaled(d.name, capped(300, scale), seed)
		if err != nil {
			return err
		}
		pcoord.NormalizeColumns(tab.X)
		cmp := pcoord.CompareOrderings(tab.X)
		reduction := 0.0
		if cmp.OriginalCross > 0 {
			reduction = 100 * (1 - float64(cmp.ApproxCross)/float64(cmp.OriginalCross))
		}

		km := cluster.KMeans(tab.X, d.k, 30, seed)
		// De-clutter metric: mean within-cluster variance of line positions
		// at assistant coordinates before vs after energy reduction.
		var before, after float64
		pairs := 0
		for pos := 0; pos+1 < len(cmp.ApproxOrder); pos++ {
			left := pcoord.Column(tab.X, cmp.ApproxOrder[pos])
			right := pcoord.Column(tab.X, cmp.ApproxOrder[pos+1])
			res := pcoord.ReduceEnergy(left, right, km.Assign, d.k, pcoord.DefaultEnergyParams())
			mid := make([]float64, len(left))
			for i := range mid {
				mid[i] = (left[i] + right[i]) / 2
			}
			before += withinClusterVar(mid, res.ClusterOf, d.k)
			after += withinClusterVar(res.Z, res.ClusterOf, d.k)
			pairs++
		}
		if pairs > 0 {
			before /= float64(pairs)
			after /= float64(pairs)
		}
		declutter := 0.0
		if before > 0 {
			declutter = 100 * (1 - after/before)
		}
		rows = append(rows, []string{d.name, fmt.Sprint(d.k),
			fmt.Sprint(cmp.OriginalCross), fmt.Sprint(cmp.ApproxCross), viz.F(reduction),
			viz.F(declutter)})
	}
	fmt.Fprintln(w, "Figs 5.4-5.10 (quantified): crossing reduction by MST ordering and")
	fmt.Fprintln(w, "within-cluster spread reduction by energy reduction")
	viz.Table(w, []string{"dataset", "clusters", "crossings (orig)", "crossings (ordered)",
		"reduction %", "de-clutter %"}, rows)
	fmt.Fprintln(w, "SVG renderings: see examples/pcoordsvg")
	return nil
}

func withinClusterVar(vals []float64, clusterOf []int, k int) float64 {
	var total float64
	for c := 0; c < k; c++ {
		var s, ss, n float64
		for i, v := range vals {
			if clusterOf[i] != c {
				continue
			}
			s += v
			ss += float64(v * v)
			n++
		}
		if n > 1 {
			mean := s / n
			total += ss/n - float64(mean*mean)
		}
	}
	return total / float64(k)
}
