// Package mapitertest is the mapiter golden fixture: each flagged line
// visits a map in Go's randomized iteration order, whatever the loop body
// does with it, and each clean case visits it through its sorted keys or
// through an order-free helper.
package mapitertest

import (
	"fmt"
	"maps"
	"slices"
	"sort"
)

// appendInMapOrder is the minimal historical bug: a result slice filled in
// map order, never sorted.
func appendInMapOrder(m map[string]int) []string {
	var keys []string
	for k := range m { // want "range over map m"
		keys = append(keys, k)
	}
	return keys
}

// collectThenSort is the old collect-then-sort shape. It is flagged too:
// whether a later sort repairs the order depends on that sort being a total
// order, which the rule does not try to judge.
func collectThenSort(m map[string]int) []string {
	var keys []string
	for k := range m { // want "range over map m"
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// floatAccumInMapOrder is the CumulativeAPSS drift bug: float addition is
// not associative, so the sum's last ulp depends on visit order.
func floatAccumInMapOrder(m map[string]float64) float64 {
	var sum float64
	for _, v := range m { // want "range over map m"
		sum += v
	}
	return sum
}

// printsInMapOrder writes output in map order — nondeterministic logs and
// experiment reports.
func printsInMapOrder(m map[string]int) {
	for k, v := range m { // want "range over map m"
		fmt.Println(k, v)
	}
}

// rangeKeysIterator is the same visit through the iterator form, which
// ranges a function rather than a map.
func rangeKeysIterator(m map[string]int) []string {
	var keys []string
	for k := range maps.Keys(m) { // want "maps.Keys yields"
		keys = append(keys, k)
	}
	return keys
}

// collectValues collects the values in map order.
func collectValues(m map[string]int) []int {
	return slices.Collect(maps.Values(m)) // want "maps.Values yields"
}

// sortedValues sorts values, not keys: equal values that differ in their
// bits (0 and -0, NaNs) still come out in map order.
func sortedValues(m map[string]float64) []float64 {
	return slices.Sorted(maps.Values(m)) // want "maps.Values yields"
}

// allPairs ranges the key/value iterator.
func allPairs(m map[string]int) int {
	total := 0
	for _, v := range maps.All(m) { // want "maps.All yields"
		total += v
	}
	return total
}

// sortedKeys is the sanctioned visit: the keys in ascending order.
func sortedKeys(m map[string]float64) float64 {
	var sum float64
	for _, k := range slices.Sorted(maps.Keys(m)) {
		sum += m[k]
	}
	return sum
}

// copyKeyed copies keyed slots with an order-free helper.
func copyKeyed(dst, src map[string]int) {
	maps.Copy(dst, src)
}
