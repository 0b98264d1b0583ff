package pcoord

import (
	"fmt"
	"strings"
)

// RenderOptions controls the SVG rendering of a parallel-coordinates plot.
type RenderOptions struct {
	Width, Height int
	// UseEnergy inserts an assistant coordinate between every pair of
	// adjacent coordinates and bends lines through their energy-reduced
	// positions with Bézier curves (the Fig 5.2c presentation).
	UseEnergy bool
	Energy    EnergyParams
	// Order permutes the dimensions; nil keeps the natural order.
	Order []int
}

// palette gives clusters distinct stroke colors.
var palette = []string{
	"#e41a1c", "#377eb8", "#4daf4a", "#984ea3", "#ff7f00",
	"#a65628", "#f781bf", "#17becf", "#bcbd22", "#7f7f7f",
}

// RenderSVG draws the dataset (rows = items) as a parallel-coordinates SVG.
// data must be column-normalized to [0,1] (see NormalizeColumns); clusters
// assigns each row a cluster in [0,k). The returned string is a complete
// standalone SVG document.
func RenderSVG(data [][]float64, clusters []int, k int, opt RenderOptions) string {
	if opt.Width <= 0 {
		opt.Width = 900
	}
	if opt.Height <= 0 {
		opt.Height = 500
	}
	var b strings.Builder
	fmt.Fprintf(&b, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" viewBox="0 0 %d %d">`,
		opt.Width, opt.Height, opt.Width, opt.Height)
	b.WriteString(`<rect width="100%" height="100%" fill="white"/>`)
	if len(data) == 0 {
		b.WriteString("</svg>")
		return b.String()
	}
	d := len(data[0])
	order := opt.Order
	if order == nil {
		order = make([]int, d)
		for i := range order {
			order[i] = i
		}
	}
	margin := 40.0
	w := float64(opt.Width) - 2*margin
	h := float64(opt.Height) - 2*margin
	axisX := func(pos int) float64 { return margin + w*float64(pos)/float64(len(order)-1) }
	plotY := func(v float64) float64 { return margin + float64(h*(1-v)) }

	// Axes.
	for pos := range order {
		x := axisX(pos)
		fmt.Fprintf(&b, `<line x1="%.1f" y1="%.1f" x2="%.1f" y2="%.1f" stroke="#999" stroke-width="1"/>`,
			x, margin, x, margin+h)
	}

	// Energy-reduced middle positions per adjacent pair.
	var mids [][]float64
	if opt.UseEnergy && len(order) > 1 {
		mids = make([][]float64, len(order)-1)
		for pos := 0; pos+1 < len(order); pos++ {
			left := Column(data, order[pos])
			right := Column(data, order[pos+1])
			res := ReduceEnergy(left, right, clusters, k, opt.Energy)
			mids[pos] = res.Z
		}
	}

	for i, row := range data {
		color := palette[0]
		if clusters != nil {
			color = palette[clusters[i]%len(palette)]
		}
		var path strings.Builder
		for pos := 0; pos < len(order); pos++ {
			x := axisX(pos)
			y := plotY(row[order[pos]])
			if pos == 0 {
				fmt.Fprintf(&path, "M%.1f %.1f", x, y)
				continue
			}
			if mids != nil {
				// Quadratic Bézier whose midpoint passes through the
				// assistant-coordinate position.
				xPrev := axisX(pos - 1)
				yPrev := plotY(row[order[pos-1]])
				zm := plotY(mids[pos-1][i])
				// Control point such that the curve midpoint hits zm:
				// c = 2*zm - (yPrev+y)/2.
				cx := (xPrev + x) / 2
				cy := float64(2*zm) - float64((yPrev+y)/2)
				fmt.Fprintf(&path, " Q%.1f %.1f %.1f %.1f", cx, cy, x, y)
			} else {
				fmt.Fprintf(&path, " L%.1f %.1f", x, y)
			}
		}
		fmt.Fprintf(&b, `<path d="%s" fill="none" stroke="%s" stroke-width="0.8" stroke-opacity="0.55"/>`,
			path.String(), color)
	}
	b.WriteString("</svg>")
	return b.String()
}
