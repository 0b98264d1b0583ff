// Package viz renders experiment output as aligned text tables and ASCII
// charts. It stands in for the paper's gnuplot/matplotlib figures: a
// "figure" experiment prints its series as a table and a quick terminal
// chart, so a reproduction run is inspectable without leaving the shell.
//
// The surface is three functions: Table writes an aligned text table,
// Chart draws one or more y-series over a shared x-axis as a fixed-height
// ASCII plot (series are labelled by map key, log-ish ranges are handled
// by the caller), and F formats a float compactly for table cells. Everything writes to an
// io.Writer, so CLIs, experiments, and tests share the renderers.
package viz

import (
	"fmt"
	"io"
	"math"
	"strings"
)

// Table writes an aligned text table.
func Table(w io.Writer, headers []string, rows [][]string) {
	widths := make([]int, len(headers))
	for i, h := range headers {
		widths[i] = len(h)
	}
	for _, r := range rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(headers)
	sep := make([]string, len(headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range rows {
		line(r)
	}
}

// Chart draws a rough ASCII line chart of one or more named series over a
// shared x grid. Height is in text rows.
func Chart(w io.Writer, title string, xs []float64, series map[string][]float64, height int) {
	if height < 4 {
		height = 10
	}
	width := len(xs)
	if width == 0 || len(series) == 0 {
		fmt.Fprintf(w, "%s: (no data)\n", title)
		return
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, ys := range series {
		for _, y := range ys {
			if math.IsNaN(y) || math.IsInf(y, 0) {
				continue
			}
			if y < lo {
				lo = y
			}
			if y > hi {
				hi = y
			}
		}
	}
	if math.IsInf(lo, 1) {
		fmt.Fprintf(w, "%s: (no finite data)\n", title)
		return
	}
	if hi == lo {
		hi = lo + 1
	}
	grid := make([][]byte, height)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", width))
	}
	marks := []byte("*o+x#@%&")
	names := make([]string, 0, len(series))
	for name := range series {
		names = append(names, name)
	}
	// Deterministic series order.
	for i := 0; i < len(names); i++ {
		for j := i + 1; j < len(names); j++ {
			if names[j] < names[i] {
				names[i], names[j] = names[j], names[i]
			}
		}
	}
	for si, name := range names {
		ys := series[name]
		mark := marks[si%len(marks)]
		for x := 0; x < width && x < len(ys); x++ {
			y := ys[x]
			if math.IsNaN(y) || math.IsInf(y, 0) {
				continue
			}
			r := int((hi - y) / (hi - lo) * float64(height-1))
			if r < 0 {
				r = 0
			}
			if r >= height {
				r = height - 1
			}
			grid[r][x] = mark
		}
	}
	fmt.Fprintf(w, "%s  [%.4g .. %.4g]\n", title, lo, hi)
	for _, row := range grid {
		fmt.Fprintf(w, "  |%s\n", string(row))
	}
	fmt.Fprintf(w, "  +%s\n", strings.Repeat("-", width))
	legend := make([]string, 0, len(names))
	for si, name := range names {
		legend = append(legend, fmt.Sprintf("%c=%s", marks[si%len(marks)], name))
	}
	fmt.Fprintf(w, "   x: %.3g..%.3g   %s\n", xs[0], xs[len(xs)-1], strings.Join(legend, " "))
}

// F formats a float compactly for table cells.
func F(v float64) string {
	switch {
	case v == math.Trunc(v) && math.Abs(v) < 1e15:
		return fmt.Sprintf("%.0f", v)
	case math.Abs(v) >= 1000 || (math.Abs(v) < 0.01 && v != 0):
		return fmt.Sprintf("%.3g", v)
	default:
		return fmt.Sprintf("%.3f", v)
	}
}
