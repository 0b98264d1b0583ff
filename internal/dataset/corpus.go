package dataset

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"

	"plasmahd/internal/vec"
)

// CorpusSpec describes a sparse corpus stand-in for the document and network
// datasets of Tables 2.1 and 4.6.
type CorpusSpec struct {
	Name        string
	Docs        int
	Vocab       int
	AvgLen      int     // mean non-zeros per row
	Communities int     // planted communities sharing token blocks
	Cohesion    float64 // prob a token is drawn from the community block
	ZipfS       float64 // Zipf exponent for the global token distribution
	Weighted    bool    // TF/IDF cosine (true) or unweighted Jaccard (false)
}

// corpusSpecs scales the paper corpora down to laptop size while preserving
// the head-heavy nnz distribution and community structure each experiment
// relies on. Paper sizes are 10^5-10^6 rows; stand-ins are O(10^3) with the
// same average-length ordering (TwitterLinks long rows, WikiLinks short).
var corpusSpecs = map[string]CorpusSpec{
	// Table 2.1
	"twitter": {Name: "twitter", Docs: 1500, Vocab: 6000, AvgLen: 90,
		Communities: 40, Cohesion: 0.85, ZipfS: 1.25, Weighted: true},
	"rcv1": {Name: "rcv1", Docs: 2500, Vocab: 9000, AvgLen: 45,
		Communities: 30, Cohesion: 0.80, ZipfS: 1.20, Weighted: true},
	// Fig 2.9 / Table 4.6 family
	"twitterlinks": {Name: "twitterlinks", Docs: 1500, Vocab: 6000, AvgLen: 110,
		Communities: 40, Cohesion: 0.85, ZipfS: 1.25, Weighted: true},
	"wikiwords100k": {Name: "wikiwords100k", Docs: 2000, Vocab: 10000, AvgLen: 70,
		Communities: 35, Cohesion: 0.75, ZipfS: 1.15, Weighted: true},
	"wikiwords200": {Name: "wikiwords200", Docs: 2200, Vocab: 9000, AvgLen: 40,
		Communities: 35, Cohesion: 0.75, ZipfS: 1.15, Weighted: true},
	"wikiwords500": {Name: "wikiwords500", Docs: 1200, Vocab: 9000, AvgLen: 80,
		Communities: 30, Cohesion: 0.78, ZipfS: 1.15, Weighted: true},
	"wikilinks": {Name: "wikilinks", Docs: 3000, Vocab: 12000, AvgLen: 24,
		Communities: 60, Cohesion: 0.70, ZipfS: 1.30, Weighted: true},
	"orkut": {Name: "orkut", Docs: 3000, Vocab: 3000, AvgLen: 30,
		Communities: 50, Cohesion: 0.80, ZipfS: 1.20, Weighted: false},
	"rcv1_3k": {Name: "rcv1_3k", Docs: 3000, Vocab: 9000, AvgLen: 45,
		Communities: 30, Cohesion: 0.80, ZipfS: 1.20, Weighted: true},
}

// CorpusNames returns the known corpus names in sorted order.
func CorpusNames() []string {
	return slices.Sorted(maps.Keys(corpusSpecs))
}

// NewCorpusScaled generates the named corpus capped at maxDocs rows
// (0 = spec size).
func NewCorpusScaled(name string, maxDocs int, seed int64) (*vec.Dataset, error) {
	spec, ok := corpusSpecs[name]
	if !ok {
		return nil, fmt.Errorf("dataset: unknown corpus %q (known: %v)", name, CorpusNames())
	}
	docs := spec.Docs
	if maxDocs > 0 && docs > maxDocs {
		docs = maxDocs
	}
	rng := rand.New(rand.NewSource(seed ^ hashName(name)))
	global := rand.NewZipf(rng, spec.ZipfS, 1, uint64(spec.Vocab-1))

	// Each community owns a contiguous token block; a community's documents
	// draw most tokens from the Zipf head of that block, producing the
	// high-similarity pairs that all-pairs search finds at t ~ 0.6-0.95.
	blockSize := spec.Vocab / spec.Communities
	if blockSize < 4 {
		blockSize = 4
	}
	commZipf := rand.NewZipf(rng, 1.6, 1, uint64(blockSize-1))
	measure := vec.CosineSim
	if !spec.Weighted {
		measure = vec.JaccardSim
	}
	d := &vec.Dataset{Name: name, Dim: spec.Vocab, Measure: measure}
	for i := 0; i < docs; i++ {
		comm := rng.Intn(spec.Communities)
		base := (comm * blockSize) % spec.Vocab
		// Row lengths follow a geometric-ish distribution around AvgLen,
		// giving the heavy-tailed nnz histogram of real corpora.
		length := 1 + int(rng.ExpFloat64()*float64(spec.AvgLen))
		if length > spec.Vocab/2 {
			length = spec.Vocab / 2
		}
		tf := make(map[int32]float64, length)
		for k := 0; k < length; k++ {
			var tok int
			if rng.Float64() < spec.Cohesion {
				tok = base + int(commZipf.Uint64())
			} else {
				tok = int(global.Uint64())
			}
			if tok >= spec.Vocab {
				tok = spec.Vocab - 1
			}
			tf[int32(tok)]++
		}
		d.Rows = append(d.Rows, vec.FromMap(tf))
	}
	if spec.Weighted {
		d.TFIDF()
	}
	d.NormalizeRows() // unweighted (Jaccard) rows keep only their index sets
	return d, nil
}
