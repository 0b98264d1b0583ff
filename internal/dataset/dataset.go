// Package dataset provides seeded synthetic stand-ins for every dataset in
// the paper's evaluation. The originals (UCI tables, Twitter/RCV1/Wikipedia
// corpora, LAW web crawls, FIMI transactional sets) are not redistributable
// or not retrievable offline, so each generator reproduces the statistical
// property the corresponding experiment exercises — cluster structure for
// the UCI tables, Zipfian sparse vectors with planted communities for the
// corpora, planted frequent patterns for the transactional sets, and
// power-law community graphs with near-biclique (link-spam-like) blocks for
// the web graphs. The spec tables record the mapping — tableSpecs here,
// corpusSpecs in corpus.go, transSpecs and graphSpecs in transactional.go —
// each keyed by the paper's dataset name and commented with the table or
// figure that reports it.
package dataset

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"

	"plasmahd/internal/vec"
)

// Table is a dense labeled dataset standing in for a UCI table.
type Table struct {
	Name   string
	X      [][]float64
	Labels []int
	Spec   TableSpec
}

// TableSpec describes a UCI-style stand-in: the paper-reported shape plus
// generator knobs.
type TableSpec struct {
	Name     string
	Points   int     // paper row count (possibly "8000 of N" as in Table 3.1)
	Dims     int     // numeric attributes used
	Clusters int     // planted mixture components
	Spread   float64 // within-cluster standard deviation
	DupRate  float64 // fraction of near-duplicate rows (spambase-like)
}

// tableSpecs lists every dense dataset referenced in Tables 2.1, 3.1 and 5.1.
// Points/Dims match the paper; Clusters follows the class counts or the
// cluster counts of Figs 5.4-5.10 where given.
var tableSpecs = map[string]TableSpec{
	// Table 2.1 / Fig 2.5
	"wine":   {Name: "wine", Points: 178, Dims: 13, Clusters: 3, Spread: 0.45},
	"credit": {Name: "credit", Points: 690, Dims: 39, Clusters: 2, Spread: 0.65},
	// Table 3.1 (graph growth)
	"abalone":  {Name: "abalone", Points: 4177, Dims: 8, Clusters: 3, Spread: 0.55},
	"adult":    {Name: "adult", Points: 8000, Dims: 5, Clusters: 2, Spread: 0.75},
	"image":    {Name: "image", Points: 2100, Dims: 18, Clusters: 7, Spread: 0.40},
	"letter":   {Name: "letter", Points: 8000, Dims: 16, Clusters: 26, Spread: 0.45},
	"mushroom": {Name: "mushroom", Points: 8000, Dims: 21, Clusters: 2, Spread: 0.50},
	"news":     {Name: "news", Points: 8000, Dims: 57, Clusters: 5, Spread: 0.70},
	"spambase": {Name: "spambase", Points: 4601, Dims: 57, Clusters: 2, Spread: 0.60, DupRate: 0.25},
	"statlog":  {Name: "statlog", Points: 4435, Dims: 36, Clusters: 6, Spread: 0.45},
	"waveform": {Name: "waveform", Points: 5000, Dims: 21, Clusters: 3, Spread: 0.60},
	"winered":  {Name: "winered", Points: 1599, Dims: 11, Clusters: 6, Spread: 0.55},
	"winewhite": {Name: "winewhite", Points: 4898, Dims: 11, Clusters: 7,
		Spread: 0.55},
	"yeast": {Name: "yeast", Points: 1484, Dims: 8, Clusters: 10, Spread: 0.60},
	// Table 5.1 (parallel coordinates; cluster counts from Figs 5.4-5.10)
	"forestfires":     {Name: "forestfires", Points: 517, Dims: 11, Clusters: 6, Spread: 0.50},
	"water-treatment": {Name: "water-treatment", Points: 527, Dims: 38, Clusters: 3, Spread: 0.50},
	"wdbc":            {Name: "wdbc", Points: 569, Dims: 30, Clusters: 4, Spread: 0.50},
	"parkinsons":      {Name: "parkinsons", Points: 195, Dims: 22, Clusters: 4, Spread: 0.50},
	"pima":            {Name: "pima", Points: 768, Dims: 8, Clusters: 10, Spread: 0.55},
	"winepc":          {Name: "winepc", Points: 178, Dims: 13, Clusters: 4, Spread: 0.45},
	"eighthr":         {Name: "eighthr", Points: 2534, Dims: 72, Clusters: 2, Spread: 0.65},
}

// TableNames returns the known dense dataset names in sorted order.
func TableNames() []string {
	return slices.Sorted(maps.Keys(tableSpecs))
}

// NewTable generates the named table at its paper-reported size.
func NewTable(name string, seed int64) (*Table, error) {
	return NewTableScaled(name, 0, seed)
}

// NewTableScaled generates the named table capped at maxPoints rows
// (0 = paper size). Capping keeps CI-scale experiments tractable; the
// generator's structure is size-invariant.
func NewTableScaled(name string, maxPoints int, seed int64) (*Table, error) {
	spec, ok := tableSpecs[name]
	if !ok {
		return nil, fmt.Errorf("dataset: unknown table %q (known: %v)", name, TableNames())
	}
	n := spec.Points
	if maxPoints > 0 && n > maxPoints {
		n = maxPoints
	}
	rng := rand.New(rand.NewSource(seed ^ int64(len(name))<<32 ^ hashName(name)))

	// Cluster centers on a unit-ish sphere shell scaled by 3: keeps cosine
	// similarity within clusters high and across clusters moderate, the
	// regime where the paper's threshold knees appear around 0.5-0.8.
	centers := make([][]float64, spec.Clusters)
	for c := range centers {
		centers[c] = make([]float64, spec.Dims)
		for j := range centers[c] {
			centers[c][j] = rng.NormFloat64() * 3
		}
	}
	// Mildly unequal cluster weights, as in real class distributions.
	weights := make([]float64, spec.Clusters)
	var wsum float64
	for c := range weights {
		weights[c] = 0.5 + float64(rng.Float64())
		wsum += weights[c]
	}

	t := &Table{Name: name, Spec: spec}
	for i := 0; i < n; i++ {
		if spec.DupRate > 0 && len(t.X) > 0 && rng.Float64() < spec.DupRate {
			// Near-duplicate of an earlier row (spambase behaviour that
			// breaks translation-scaling in Table 3.2).
			src := rng.Intn(len(t.X))
			row := append([]float64(nil), t.X[src]...)
			for j := range row {
				row[j] += float64(rng.NormFloat64() * 0.01)
			}
			t.X = append(t.X, row)
			t.Labels = append(t.Labels, t.Labels[src])
			continue
		}
		r := rng.Float64() * wsum
		c := 0
		for acc := weights[0]; acc < r && c < spec.Clusters-1; {
			c++
			acc += weights[c]
		}
		row := make([]float64, spec.Dims)
		for j := range row {
			row[j] = centers[c][j] + float64(rng.NormFloat64()*spec.Spread*3)
		}
		t.X = append(t.X, row)
		t.Labels = append(t.Labels, c)
	}
	return t, nil
}

// Dataset converts the table to a sparse cosine-similarity vec.Dataset.
func (t *Table) Dataset() *vec.Dataset {
	return vec.FromDenseMatrix(t.Name, t.X, vec.CosineSim)
}

// Toy50 generates the 50-record, 3-dimensional dataset d1 of Figure 2.2:
// three planted communities whose structure is visible at t1=0.5 but not at
// 0.8 (too sparse) or 0.2 (too dense).
func Toy50(seed int64) *Table {
	rng := rand.New(rand.NewSource(seed))
	centers := [][]float64{{0.1, 0.2, 0.9}, {0.5, 0.9, 0.2}, {0.9, 0.4, 0.5}}
	t := &Table{Name: "d1", Spec: TableSpec{Name: "d1", Points: 50, Dims: 3, Clusters: 3}}
	for i := 0; i < 50; i++ {
		c := i % 3
		row := make([]float64, 3)
		for j := range row {
			v := centers[c][j] + float64(rng.NormFloat64()*0.13)
			if v < 0.01 {
				v = 0.01
			}
			if v > 1 {
				v = 1
			}
			row[j] = v
		}
		t.X = append(t.X, row)
		t.Labels = append(t.Labels, c)
	}
	return t
}

func hashName(s string) int64 {
	var h int64 = 1469598103934665603
	for _, c := range s {
		h ^= int64(c)
		h *= 1099511628211
	}
	return h
}
