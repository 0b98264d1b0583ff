package bayeslsh

import (
	"slices"
	"testing"

	"plasmahd/internal/lsh"
	"plasmahd/internal/vec"
)

// TestPortableGolden pins, as literal constants, the values every answer is
// built from: the minhash and SRP signatures of three fixed rows, and the
// Eq 2.1 prune bounds of the default params under both measures. The other
// goldens compare a run with a stream the same program wrote, so on an
// architecture whose arithmetic drifts (a fused multiply-add, a math
// routine with its own assembly) they still agree with themselves; this
// test fails there instead. The constants were recorded on amd64.
func TestPortableGolden(t *testing.T) {
	rows := []vec.Sparse{
		{Indices: []int32{0, 3, 7, 42, 99}, Values: []float64{0.5, -1.25, 2, 0.75, 3}},
		{Indices: []int32{1, 3, 8, 42, 64, 127}, Values: []float64{-0.1, 0.2, -0.3, 0.4, -0.5, 0.6}},
		{Indices: []int32{5}, Values: []float64{1}},
	}
	minSigs := [][]uint32{
		{0xd9bc64, 0x10a09f4e, 0xd546610, 0x1a86ddb4, 0x19174445, 0x15f260fd, 0x27be1c3f, 0x24a3fb93, 0x4c7dab71, 0x13998b64, 0x1a302f5, 0x3cfd319, 0x565f8113, 0x23553493, 0x5289285b, 0x624e99dd},
		{0x2aa7da, 0x402af1e0, 0x5168abf0, 0x19df6416, 0x52a7f4a4, 0x287c223a, 0x1741f6ba, 0x24a3fb93, 0x3d7da231, 0x13998b64, 0x1a302f5, 0x2693e27b, 0x2bb9ac34, 0x2efb8242, 0x2dda4e76, 0x681543e},
		{0x761d5086, 0xb1760e8, 0xa3646536, 0x8ac4fb57, 0x3cdaca99, 0xa0b557af, 0x69f4e76b, 0xb63411c1, 0x548e6275, 0xa1852f69, 0x1f823474, 0x183ac4ae, 0x6b6efe95, 0x428724fd, 0x8f1cae15, 0x2c5e72d8},
	}
	srpSigs := [][]uint64{
		{0x4da0ea097af7e455, 0x832f18cfdcb283bb, 0xe45249ad1d36b8c5, 0x91470b687c221f08},
		{0x709ec30b7dcce7c0, 0xe3562faa4a59834b, 0xe2a9c35b2bf7d4af, 0xf8030ffe5d21eb1b},
		{0xf625f4428fecc308, 0x180e523c1e38ee88, 0x2bed44a6474ac31, 0x5c5dfef4a25029e9},
	}
	mh := lsh.NewMinHasher(16, 7)
	srp := lsh.NewSRP(DefaultParams().MaxHashes, 128, 7)
	for i, r := range rows {
		if got := mh.Sketch(r); !slices.Equal(got, minSigs[i]) {
			t.Errorf("row %d minhash = %#v, want %#v", i, got, minSigs[i])
		}
		if got := srp.Sketch(r); !slices.Equal(got, srpSigs[i]) {
			t.Errorf("row %d SRP = %#v, want %#v", i, got, srpSigs[i])
		}
	}

	thresholds := []float64{0.5, 0.6, 0.7, 0.8, 0.9, 0.95}
	bounds := map[vec.Measure][][]int32{
		vec.JaccardSim: {
			{10, 24, 38, 53, 68, 82, 97, 112},
			{13, 31, 48, 66, 84, 102, 120, 138},
			{17, 37, 58, 79, 101, 122, 143, 165},
			{21, 45, 69, 93, 118, 143, 167, 192},
			{25, 53, 80, 108, 136, 165, 193, 221},
			{28, 57, 87, 117, 146, 176, 206, 236},
		},
		vec.CosineSim: {
			{16, 35, 55, 75, 95, 115, 136, 156},
			{17, 38, 59, 80, 101, 123, 145, 166},
			{19, 41, 63, 86, 109, 132, 155, 178},
			{21, 44, 68, 93, 117, 142, 166, 191},
			{23, 49, 75, 102, 128, 155, 182, 208},
			{25, 53, 80, 108, 136, 164, 192, 221},
		},
	}
	for _, m := range []vec.Measure{vec.JaccardSim, vec.CosineSim} {
		c := newCache(DefaultParams(), m, 7, NewPairStore())
		for k, th := range thresholds {
			if got := c.pruneBound(th); !slices.Equal(got, bounds[m][k]) {
				t.Errorf("%v pruneBound(%v) = %#v, want %#v", m, th, got, bounds[m][k])
			}
		}
	}
}
