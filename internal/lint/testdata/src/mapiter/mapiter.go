// Package mapitertest is the mapiter golden fixture: each flagged line
// reproduces the PR 7 bug class (map-iteration order leaking into results)
// and each ok case is a sanctioned idiom.
package mapitertest

import (
	"fmt"
	"sort"
)

// appendInMapOrder is the minimal historical bug: a result slice filled in
// map order, never sorted.
func appendInMapOrder(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k) // want "append to slice keys"
	}
	return keys
}

// collectThenSort is the sanctioned collect-then-sort idiom
// (lam.TrainClassifier's class list): order is repaired after the loop.
func collectThenSort(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// floatAccumInMapOrder is the CumulativeAPSS drift bug: float addition is
// not associative, so the sum's last ulp depends on visit order.
func floatAccumInMapOrder(m map[string]float64) float64 {
	var sum float64
	for _, v := range m {
		sum += v // want "float accumulation"
	}
	return sum
}

// perIterationLocal accumulates into a loop-local: each iteration's sum is
// independent of visit order and lands in a keyed slot.
func perIterationLocal(m map[string][]float64) map[string]float64 {
	out := make(map[string]float64, len(m))
	for k, vs := range m {
		s := 0.0
		for _, v := range vs {
			s += v
		}
		out[k] = s
	}
	return out
}

// printsInMapOrder writes output in map order — nondeterministic logs and
// experiment reports.
func printsInMapOrder(m map[string]int) {
	for k, v := range m {
		fmt.Println(k, v) // want "output via fmt.Println"
	}
}

// annotated shows the escape hatch: the site is deliberate and reviewed.
func annotated(m map[string]int) int {
	total := 0
	var weights []float64
	for _, v := range m {
		//lint:mapiter-ok integer-weight collection; consumer sorts before use
		weights = append(weights, float64(v))
		total += v
	}
	return total + len(weights)
}

// mapToMap copies keyed slots; writes keyed by the iteration variable are
// order-independent.
func mapToMap(dst, src map[string]int) {
	for k, v := range src {
		dst[k] = v
	}
}
