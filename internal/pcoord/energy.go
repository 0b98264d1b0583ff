package pcoord

import (
	"math"
	"sort"
)

// EnergyParams are the §5.1.1 model weights: Alpha scales elastic energy
// (line straightness), Beta attraction to the own-cluster center, Gamma
// repulsion from adjacent cluster centers. Eps is the relative-improvement
// stopping threshold of Algorithm 7.
type EnergyParams struct {
	Alpha, Beta, Gamma float64
	Eps                float64
	MaxIter            int
	// Weighted selects the revised repelling energy of Corollaries 1-2,
	// which reserves more space for larger clusters.
	Weighted bool
}

// DefaultEnergyParams returns the α=β=γ=1/3 configuration of Table 5.2.
func DefaultEnergyParams() EnergyParams {
	return EnergyParams{Alpha: 1.0 / 3, Beta: 1.0 / 3, Gamma: 1.0 / 3, Eps: 1e-3, MaxIter: 1000}
}

// EnergyResult is the output of Algorithm 7 for one pair of adjacent
// coordinates: the middle-coordinate intersection position of every line,
// the pseudo-centers, and the energy trajectory.
type EnergyResult struct {
	Z          []float64
	Centers    []float64 // pseudo-centers in cluster-rank order
	ClusterOf  []int     // item -> cluster rank (0-based)
	Iterations int
	Energies   []float64 // energy after each iteration
}

// ReduceEnergy runs Algorithm 7 (2DimensionVis_EnergyReduction) for lines
// between two adjacent coordinates. left and right are the items' values on
// the two coordinates (normalized to [0,1]); clusters assigns each item a
// cluster id in [0,k).
func ReduceEnergy(left, right []float64, clusters []int, k int, p EnergyParams) *EnergyResult {
	n := len(left)
	if n == 0 || k < 1 {
		return &EnergyResult{}
	}
	if p.MaxIter < 1 {
		p.MaxIter = 1000
	}

	mid := make([]float64, n) // (x_i + y_i)/2, the elastic rest position
	for i := range mid {
		mid[i] = (left[i] + right[i]) / 2
	}

	// Rank clusters by their initial center on the middle coordinate
	// (§5.2.1 assumes clusters ordered by center).
	sums := make([]float64, k)
	counts := make([]int, k)
	for i, c := range clusters {
		sums[c] += mid[i]
		counts[c]++
	}
	type cc struct {
		id     int
		center float64
	}
	ranked := make([]cc, 0, k)
	for c := 0; c < k; c++ {
		ctr := 0.5
		if counts[c] > 0 {
			ctr = sums[c] / float64(counts[c])
		}
		ranked = append(ranked, cc{c, ctr})
	}
	sort.Slice(ranked, func(a, b int) bool { return ranked[a].center < ranked[b].center })
	rankOf := make([]int, k)
	for r, c := range ranked {
		rankOf[c.id] = r
	}
	clusterOf := make([]int, n)
	for i, c := range clusters {
		clusterOf[i] = rankOf[c]
	}
	members := make([][]int, k)
	for i, r := range clusterOf {
		members[r] = append(members[r], i)
	}

	// Initial state: straight lines, pseudo-centers at cluster means.
	z := append([]float64(nil), mid...)
	centers := make([]float64, k)
	for r := 0; r < k; r++ {
		if len(members[r]) == 0 {
			centers[r] = 0.5
			continue
		}
		var s float64
		for _, i := range members[r] {
			s += z[i]
		}
		centers[r] = s / float64(len(members[r]))
	}

	// Virtual boundary centers (ĉ_0 = min of coordinate, ĉ_{k+1} = max).
	centerAt := func(r int) float64 {
		switch {
		case r < 0:
			return 0
		case r >= k:
			return 1
		}
		return centers[r]
	}
	sizeAt := func(r int) float64 {
		if r < 0 || r >= k {
			return 0
		}
		return float64(len(members[r]))
	}
	// Repelling weights for cluster rank r: w(prev), w(next). The unweighted
	// model uses 1,1; the Corollary 1 variant splits γ by adjacent sizes.
	repelWeights := func(r int) (wPrev, wNext float64) {
		if !p.Weighted {
			return 1, 1
		}
		sp, sn := sizeAt(r-1), sizeAt(r+1)
		if sp+sn == 0 {
			return 0.5, 0.5
		}
		return sn / (sp + sn), sp / (sp + sn)
	}

	energy := func() float64 {
		var e float64
		for i := 0; i < n; i++ {
			r := clusterOf[i]
			ee := z[i] - mid[i]
			ea := z[i] - centers[r]
			e += float64(p.Alpha*ee*ee) + float64(p.Beta*ea*ea)
			if r > 0 && r < k-1 {
				wp, wn := repelWeights(r)
				er1 := z[i] - centerAt(r-1)
				er2 := z[i] - centerAt(r+1)
				e += float64(p.Gamma * (float64(wp*er1*er1) + float64(wn*er2*er2)))
			}
		}
		return e
	}

	res := &EnergyResult{ClusterOf: clusterOf}
	prevE := energy()
	res.Energies = append(res.Energies, prevE)
	for iter := 0; iter < p.MaxIter; iter++ {
		// Lemma 1 / Corollary 1: stationary z_i given centers.
		for i := 0; i < n; i++ {
			r := clusterOf[i]
			if r == 0 || r == k-1 {
				// Boundary clusters: elastic + attraction only.
				den := p.Alpha + p.Beta
				if den > 0 {
					z[i] = (float64(p.Alpha*mid[i]) + float64(p.Beta*centers[r])) / den
				}
				continue
			}
			wp, wn := repelWeights(r)
			den := p.Alpha + p.Beta + float64(p.Gamma*(wp+wn))
			if den > 0 {
				z[i] = (float64(p.Alpha*mid[i]) + float64(p.Beta*centers[r]) +
					float64(p.Gamma*(float64(wp*centerAt(r-1))+float64(wn*centerAt(r+1))))) / den
			}
		}
		// Lemma 2 / Corollary 2: stationary pseudo-centers given z.
		sumZ := make([]float64, k)
		for r := 0; r < k; r++ {
			for _, i := range members[r] {
				sumZ[r] += z[i]
			}
		}
		for r := 0; r < k; r++ {
			pPrev, pNext := 1.0, 1.0
			if r == 0 || r == 1 {
				pPrev = 0
			}
			if r == k-1 || r == k-2 {
				pNext = 0
			}
			if p.Weighted {
				// Corollary 2: p' = |C_{r-2}|/(|C_{r-2}|+|C_r|) and
				// p'' = |C_{r+2}|/(|C_r|+|C_{r+2}|).
				if pPrev > 0 {
					if d := sizeAt(r-2) + sizeAt(r); d > 0 {
						pPrev = sizeAt(r-2) / d
					}
				}
				if pNext > 0 {
					if d := sizeAt(r+2) + sizeAt(r); d > 0 {
						pNext = sizeAt(r+2) / d
					}
				}
			}
			num := float64(p.Beta * sumZ[r])
			den := float64(p.Beta * sizeAt(r))
			if pPrev > 0 && r-1 >= 0 {
				num += float64(p.Gamma * pPrev * sumZ[r-1])
				den += float64(p.Gamma * pPrev * sizeAt(r-1))
			}
			if pNext > 0 && r+1 < k {
				num += float64(p.Gamma * pNext * sumZ[r+1])
				den += float64(p.Gamma * pNext * sizeAt(r+1))
			}
			if den > 0 {
				centers[r] = num / den
			}
		}
		e := energy()
		res.Energies = append(res.Energies, e)
		res.Iterations = iter + 1
		if prevE-e <= p.Eps*prevE {
			break
		}
		prevE = e
	}
	res.Z = z
	res.Centers = centers
	return res
}

// NormalizeColumns rescales each column of data to [0,1] in place (constant
// columns map to 0.5) — the coordinate normalization parallel coordinates
// assumes.
func NormalizeColumns(data [][]float64) {
	if len(data) == 0 {
		return
	}
	d := len(data[0])
	for j := 0; j < d; j++ {
		lo, hi := math.Inf(1), math.Inf(-1)
		for i := range data {
			if data[i][j] < lo {
				lo = data[i][j]
			}
			if data[i][j] > hi {
				hi = data[i][j]
			}
		}
		for i := range data {
			if hi > lo {
				data[i][j] = (data[i][j] - lo) / (hi - lo)
			} else {
				data[i][j] = 0.5
			}
		}
	}
}
