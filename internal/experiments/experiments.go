// Package experiments regenerates every table and figure of the paper's
// evaluation. Each experiment is a function writing paper-style rows/series
// to an io.Writer; cmd/plasmabench exposes them by id (E2.1 … E5.2) and the
// repository-root benchmarks measure them. The scale parameter caps dataset
// sizes (0 = each experiment's default reproduction scale, set where its
// registered function loads its data; `plasmabench -list` prints the
// registry); shapes are scale-invariant, absolute numbers are not.
package experiments

import (
	"fmt"
	"io"
	"sort"

	"plasmahd/internal/bayeslsh"
)

// Options carries the run-wide knobs of an experiment: the dataset size
// cap, the generator seed, and the probe-engine worker count.
type Options struct {
	// Scale caps dataset sizes (0 = the default reproduction scale).
	Scale int
	// Seed drives every synthetic generator and sketch family.
	Seed int64
	// Workers is the BayesLSH probe parallelism (0 = all cores); it does
	// not change any experiment's output, only its wall time.
	Workers int
}

// Params returns the default BayesLSH parameter set with the run's worker
// count applied — what every probing experiment should use.
func (o Options) Params() bayeslsh.Params {
	p := bayeslsh.DefaultParams()
	p.Workers = o.Workers
	return p
}

// Experiment is a registered table/figure reproduction.
type Experiment struct {
	ID    string
	Paper string // which table/figure of the paper it regenerates
	Run   func(w io.Writer, opt Options) error
}

var registry []Experiment

func register(id, paper string, run func(w io.Writer, opt Options) error) {
	registry = append(registry, Experiment{ID: id, Paper: paper, Run: run})
}

// All returns the registered experiments sorted by id.
func All() []Experiment {
	out := append([]Experiment(nil), registry...)
	sort.Slice(out, func(a, b int) bool { return out[a].ID < out[b].ID })
	return out
}

// ByID finds one experiment.
func ByID(id string) (Experiment, error) {
	for _, e := range registry {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("experiments: unknown id %q", id)
}

func capped(def, scale int) int {
	if scale > 0 && scale < def {
		return scale
	}
	return def
}
