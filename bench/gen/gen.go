// Package gen holds the benchmark's two seeded input generators. The daemon
// under test only ever receives their rows by upload (never a dataset.Spec),
// so the repo's own generators, their 3 000-row cap and their cost stay out
// of every number the benchmark reports.
//
// Both generators are pure functions of (parameters, seed): the same seed
// yields byte-identical rows and upload bodies on every run and platform
// (math/rand's seeded stream is part of Go's compatibility promise).
package gen

import (
	"math"
	"math/rand"
	"sort"
	"strconv"

	"plasmahd/internal/vec"
)

// Data is one generated dataset in upload form: raw (un-normalised) sparse
// rows exactly as they are sent to POST /v1/sessions. The server normalises
// cosine rows itself; shadows must do the same (see Dataset).
type Data struct {
	Name    string
	Dim     int
	Measure vec.Measure
	Rows    []vec.Sparse
}

// Dataset returns the rows [lo, hi) as the vec.Dataset the server builds
// from the same upload: values copied (the server owns its decoded copy) and
// rows L2-normalised, Jaccard rows carrying all-ones values.
func (d *Data) Dataset(lo, hi int) *vec.Dataset {
	ds := &vec.Dataset{Name: d.Name, Dim: d.Dim, Measure: d.Measure, Rows: CopyRows(d.Rows[lo:hi])}
	ds.NormalizeRows()
	return ds
}

// CopyRows deep-copies rows so a shadow can normalise them without touching
// the generator's output.
func CopyRows(rows []vec.Sparse) []vec.Sparse {
	out := make([]vec.Sparse, len(rows))
	for i, r := range rows {
		out[i] = vec.Sparse{
			Indices: append([]int32(nil), r.Indices...),
			Values:  append([]float64(nil), r.Values...),
		}
	}
	return out
}

// ZipfCosine describes the "zipf-cosine" family: a Zipf-headed TF-IDF corpus
// probed under cosine/SRP, the same family as the repo's "twitter" stand-in
// but short-rowed, so that most row pairs share a head token and become
// candidates while sketching stays cheap. Communities own token blocks;
// their documents draw most tokens from the block's own Zipf head, which
// plants the pairs found at 0.6-0.9.
type ZipfCosine struct {
	Rows        int
	Dim         int     // vocabulary size
	MinNnz      int     // tokens drawn per row: uniform in [MinNnz, MaxNnz]
	MaxNnz      int     // (distinct tokens come out slightly lower)
	ZipfS       float64 // global Zipf exponent (head heaviness)
	Communities int
	Cohesion    float64 // probability a token comes from the community block
	BlockZipfS  float64 // Zipf exponent inside a community block
}

// Generate builds the corpus for seed. Values are TF×IDF over the whole
// generated corpus (so a prefix used as an initial upload and the remainder
// appended later share one weighting), quantised to 1e-4 to keep uploads
// compact; the quantised value is what every consumer sees.
func (p ZipfCosine) Generate(seed int64) *Data {
	rng := rand.New(rand.NewSource(seed))
	global := rand.NewZipf(rng, p.ZipfS, 1, uint64(p.Dim-1))
	block := p.Dim / p.Communities
	if block < 4 {
		block = 4
	}
	comm := rand.NewZipf(rng, p.BlockZipfS, 1, uint64(block-1))
	tfs := make([]map[int32]float64, p.Rows)
	df := make(map[int32]int)
	for i := range tfs {
		base := rng.Intn(p.Communities) * block % p.Dim
		length := p.MinNnz + rng.Intn(p.MaxNnz-p.MinNnz+1)
		tf := make(map[int32]float64, length)
		for k := 0; k < length; k++ {
			var tok int
			if rng.Float64() < p.Cohesion {
				tok = base + int(comm.Uint64())
			} else {
				tok = int(global.Uint64())
			}
			if tok >= p.Dim {
				tok = p.Dim - 1
			}
			tf[int32(tok)]++
		}
		for tok := range tf {
			df[tok]++
		}
		tfs[i] = tf
	}
	d := &Data{Name: "zipf-cosine", Dim: p.Dim, Measure: vec.CosineSim, Rows: make([]vec.Sparse, p.Rows)}
	n := float64(p.Rows)
	for i, tf := range tfs {
		row := vec.FromMap(tf)
		for k, tok := range row.Indices {
			// +1 inside the log keeps a token present in every row from
			// weighing exactly zero (the server rejects nothing, but a
			// zero weight would silently shorten the row).
			w := row.Values[k] * math.Log(1+n/float64(df[tok]))
			row.Values[k] = math.Round(w*1e4) / 1e4
		}
		d.Rows[i] = row
	}
	return d
}

// LongsetJaccard describes the "longset-jaccard" family: long set-valued
// rows over a huge dimension probed under Jaccard/minhash — the d >> n,
// HDLSS corner where sketching (O(nnz·K)), upload decode and the one-time
// index build dominate and evidence evaluation is minor. Noise tokens are
// uniform (no head), so chance candidates stay few; planted near-duplicate
// groups supply the pairs found at 0.6-0.9.
type LongsetJaccard struct {
	Rows      int
	Dim       int
	MinNnz    int // set size uniform in [MinNnz, MaxNnz]
	MaxNnz    int
	GroupFrac float64 // share of rows that belong to a near-duplicate group
	GroupMin  int     // group size uniform in [GroupMin, GroupMax]
	GroupMax  int
	KeepLo    float64 // each member keeps a uniform [KeepLo, KeepHi] share of
	KeepHi    float64 // its group's base set; the rest is fresh noise
}

// Generate builds the set collection for seed. Group members are scattered
// over the row order (a seeded shuffle), so any contiguous slice — an
// initial upload, an appended batch, a verification sample — holds its share
// of near-duplicates.
func (p LongsetJaccard) Generate(seed int64) *Data {
	rng := rand.New(rand.NewSource(seed))
	sets := make([][]int32, 0, p.Rows)
	size := func() int { return p.MinNnz + rng.Intn(p.MaxNnz-p.MinNnz+1) }
	draw := func(set map[int32]struct{}, n int) {
		for len(set) < n {
			set[int32(rng.Intn(p.Dim))] = struct{}{}
		}
	}
	flatten := func(set map[int32]struct{}) []int32 {
		out := make([]int32, 0, len(set))
		for tok := range set {
			out = append(out, tok)
		}
		sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
		return out
	}
	grouped := int(p.GroupFrac * float64(p.Rows))
	for len(sets) < grouped {
		n := size()
		baseSet := make(map[int32]struct{}, n)
		draw(baseSet, n)
		base := flatten(baseSet)
		members := p.GroupMin + rng.Intn(p.GroupMax-p.GroupMin+1)
		for m := 0; m < members && len(sets) < grouped; m++ {
			keep := p.KeepLo + rng.Float64()*(p.KeepHi-p.KeepLo)
			set := make(map[int32]struct{}, n)
			for _, k := range rng.Perm(n)[:int(keep*float64(n))] {
				set[base[k]] = struct{}{}
			}
			draw(set, n)
			sets = append(sets, flatten(set))
		}
	}
	for len(sets) < p.Rows {
		n := size()
		set := make(map[int32]struct{}, n)
		draw(set, n)
		sets = append(sets, flatten(set))
	}
	rng.Shuffle(len(sets), func(a, b int) { sets[a], sets[b] = sets[b], sets[a] })
	d := &Data{Name: "longset-jaccard", Dim: p.Dim, Measure: vec.JaccardSim, Rows: make([]vec.Sparse, p.Rows)}
	for i, set := range sets {
		vals := make([]float64, len(set))
		for k := range vals {
			vals[k] = 1
		}
		d.Rows[i] = vec.Sparse{Indices: set, Values: vals}
	}
	return d
}

// AppendRowsJSON appends rows [lo, hi) as the JSON array of sparse rows the
// upload endpoints take: {"indices":[...],"values":[...]}, values omitted
// for Jaccard data (the server fills all-ones). Values are written in their
// shortest exact form, so the server decodes the very float64 the generator
// produced.
func (d *Data) AppendRowsJSON(buf []byte, lo, hi int) []byte {
	buf = append(buf, '[')
	for i := lo; i < hi; i++ {
		if i > lo {
			buf = append(buf, ',')
		}
		row := d.Rows[i]
		buf = append(buf, `{"indices":[`...)
		for k, ix := range row.Indices {
			if k > 0 {
				buf = append(buf, ',')
			}
			buf = strconv.AppendInt(buf, int64(ix), 10)
		}
		buf = append(buf, ']')
		if d.Measure != vec.JaccardSim {
			buf = append(buf, `,"values":[`...)
			for k, v := range row.Values {
				if k > 0 {
					buf = append(buf, ',')
				}
				buf = strconv.AppendFloat(buf, v, 'g', -1, 64)
			}
			buf = append(buf, ']')
		}
		buf = append(buf, '}')
	}
	return append(buf, ']')
}

// CreateBody returns the POST /v1/sessions body uploading rows [0, n) under
// sketch seed sketchSeed.
func (d *Data) CreateBody(n int, sketchSeed int64) []byte {
	buf := make([]byte, 0, 64+n*16)
	buf = append(buf, `{"name":"`...)
	buf = append(buf, d.Name...)
	buf = append(buf, `","measure":"`...)
	buf = append(buf, d.Measure.String()...)
	buf = append(buf, `","seed":`...)
	buf = strconv.AppendInt(buf, sketchSeed, 10)
	buf = append(buf, `,"sparse":{"dim":`...)
	buf = strconv.AppendInt(buf, int64(d.Dim), 10)
	buf = append(buf, `,"rows":`...)
	buf = d.AppendRowsJSON(buf, 0, n)
	return append(buf, "}}"...)
}

// AppendBody returns the POST /v1/sessions/{id}/rows body for rows [lo, hi).
func (d *Data) AppendBody(lo, hi int) []byte {
	buf := append(make([]byte, 0, 32+(hi-lo)*16), `{"sparse":`...)
	buf = d.AppendRowsJSON(buf, lo, hi)
	return append(buf, '}')
}
