package lsh

import (
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"testing/quick"

	"plasmahd/internal/vec"
)

func randSet(rng *rand.Rand, dim, size int) vec.Sparse {
	m := map[int32]float64{}
	for len(m) < size {
		m[int32(rng.Intn(dim))] = 1
	}
	return vec.FromMap(m)
}

func TestMinHashUnbiased(t *testing.T) {
	// The match fraction must estimate the Jaccard similarity (Eq 4.1).
	rng := rand.New(rand.NewSource(5))
	mh := NewMinHasher(2048, 17)
	for trial := 0; trial < 5; trial++ {
		a := randSet(rng, 200, 30)
		b := randSet(rng, 200, 30)
		truth := vec.Jaccard(a, b)
		sa, sb := mh.Sketch(a), mh.Sketch(b)
		est := float64(MatchesU32(sa, sb, 2048)) / 2048
		if math.Abs(est-truth) > 0.05 {
			t.Errorf("trial %d: minhash estimate %v vs true %v", trial, est, truth)
		}
	}
}

func TestMinHashIdentical(t *testing.T) {
	mh := NewMinHasher(64, 3)
	v := randSet(rand.New(rand.NewSource(1)), 100, 10)
	a := mh.Sketch(v)
	b := mh.Sketch(v)
	if MatchesU32(a, b, 64) != 64 {
		t.Error("identical sets must match on every hash")
	}
}

func TestMinHashDeterministicAcrossInstances(t *testing.T) {
	v := randSet(rand.New(rand.NewSource(2)), 100, 10)
	a := NewMinHasher(32, 9).Sketch(v)
	b := NewMinHasher(32, 9).Sketch(v)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed must give same sketches")
		}
	}
}

// minHashReference is the index-major minhash loop: for each index, every
// seed's hash lowers that seed's slot. Sketch runs seed-major and must give
// the same signature bit for bit.
func minHashReference(m *MinHasher, v vec.Sparse) []uint32 {
	sig := make([]uint32, m.K)
	for i := range sig {
		sig[i] = math.MaxUint32
	}
	for _, ix := range v.Indices {
		x := uint64(ix) + 0x9e3779b97f4a7c15
		for i, s := range m.seeds {
			h := uint32(splitmix64(x ^ s))
			if h < sig[i] {
				sig[i] = h
			}
		}
	}
	return sig
}

// TestMinHashMatchesReference pins the seed-major Sketch to the index-major
// loop over signature lengths around its four-seed stride and rows from
// empty to past its on-stack key buffer, each long row holding both ends of
// a 2²²-dimension space.
func TestMinHashMatchesReference(t *testing.T) {
	const dim = 1 << 22
	rng := rand.New(rand.NewSource(11))
	var rows []vec.Sparse
	for _, n := range []int{0, 1, 2, 110, 128, 129, 500} {
		m := map[int32]float64{}
		if n >= 1 {
			m[0] = 1
		}
		if n >= 2 {
			m[dim-1] = 1
		}
		for len(m) < n {
			m[int32(rng.Intn(dim))] = 1
		}
		rows = append(rows, vec.FromMap(m))
	}
	for _, k := range []int{1, 3, 4, 5, 255, 256} {
		mh := NewMinHasher(k, int64(k))
		for _, v := range rows {
			got, want := mh.Sketch(v), minHashReference(mh, v)
			if !slices.Equal(got, want) {
				t.Fatalf("K=%d, %d indices: seed-major sketch differs from index-major", k, len(v.Indices))
			}
		}
	}
}

func TestSRPUnbiased(t *testing.T) {
	// Bit agreement fraction must estimate 1 - θ/π.
	rng := rand.New(rand.NewSource(7))
	dim := 50
	srp := NewSRP(4096, dim, 23)
	for trial := 0; trial < 5; trial++ {
		a := denseRand(rng, dim)
		b := denseRand(rng, dim)
		truth := CosineToCollision(vec.Cosine(a, b))
		sa, sb := srp.Sketch(a), srp.Sketch(b)
		est := float64(MatchesPacked(sa, sb, 4096)) / 4096
		if math.Abs(est-truth) > 0.04 {
			t.Errorf("trial %d: srp estimate %v vs true %v", trial, est, truth)
		}
	}
}

func denseRand(rng *rand.Rand, dim int) vec.Sparse {
	row := make([]float64, dim)
	for i := range row {
		row[i] = rng.NormFloat64()
	}
	return vec.FromDense(row)
}

func TestSRPSelfMatch(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	srp := NewSRP(256, 20, 1)
	v := denseRand(rng, 20)
	s := srp.Sketch(v)
	if MatchesPacked(s, s, 256) != 256 {
		t.Error("self sketch must fully match")
	}
	// Negated vector must disagree on every bit.
	neg := vec.Sparse{Indices: v.Indices, Values: make([]float64, len(v.Values))}
	for i, x := range v.Values {
		neg.Values[i] = -x
	}
	sn := srp.Sketch(neg)
	if MatchesPacked(s, sn, 256) != 0 {
		t.Error("negated vector must fully mismatch")
	}
}

// TestSRPIndexSet: a row without values sketches as its index set with
// every weight one — and, the projection's sign being scale-free, as the
// L2-normalized set too.
func TestSRPIndexSet(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	srp := NewSRP(256, 500, 1)
	for range 20 {
		set := randSet(rng, 500, 1+rng.Intn(40))
		want := srp.Sketch(set)
		bare := srp.Sketch(vec.Sparse{Indices: set.Indices})
		set.Normalize()
		if normed := srp.Sketch(set); !slices.Equal(bare, want) || !slices.Equal(normed, want) {
			t.Fatalf("%d indices: sketch without values %x, normalized %x, with ones %x", len(set.Indices), bare, normed, want)
		}
	}
}

// TestSRPConcurrentSketch hammers one SRP with concurrent Sketch calls over
// overlapping dimensions — the parallel-sketching access pattern of
// bayeslsh.NewCache. Run under -race this is the data-race check for the
// lazily filled gaussian-row cache; the assertions pin that racing fills
// still produce exactly the signatures a serial sketcher computes.
func TestSRPConcurrentSketch(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	const dim = 40
	vecs := make([]vec.Sparse, 64)
	for i := range vecs {
		vecs[i] = denseRand(rng, dim)
	}
	ref := NewSRP(128, dim, 77)
	want := make([][]uint64, len(vecs))
	for i, v := range vecs {
		want[i] = ref.Sketch(v)
	}
	shared := NewSRP(128, dim, 77)
	got := make([][]uint64, len(vecs))
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(vecs); i += 8 {
				got[i] = shared.Sketch(vecs[i])
			}
		}(w)
	}
	wg.Wait()
	for i := range vecs {
		if len(got[i]) != len(want[i]) {
			t.Fatalf("vector %d: signature length %d, want %d", i, len(got[i]), len(want[i]))
		}
		for k := range want[i] {
			if got[i][k] != want[i][k] {
				t.Fatalf("vector %d word %d: concurrent sketch differs from serial", i, k)
			}
		}
	}
}

// TestGaussRowMatchesSinCos pins gaussRow's one math.Sincos call to the
// Box-Muller pair it replaces, r·cos θ and r·sin θ from math.Cos and
// math.Sin, bit for bit, over three seeds and 256 bits: every dimension
// below 5 000, then a widening stride up to 300 000.
func TestGaussRowMatchesSinCos(t *testing.T) {
	const bits = 256
	for seed := int64(1); seed <= 3; seed++ {
		srp := NewSRP(bits, 300_000, seed)
		for d := 0; d < 300_000; d += 1 + d/5000*100 {
			base := splitmix64(srp.seed ^ uint64(d)*0x9e3779b97f4a7c15)
			want := make([]float32, bits)
			for i := 0; i < bits; i += 2 {
				u1 := (float64(splitmix64(base^uint64(i))>>11) + 0.5) / (1 << 53)
				u2 := (float64(splitmix64(base^uint64(i)^0xdeadbeefcafef00d)>>11) + 0.5) / (1 << 53)
				r := math.Sqrt(-2 * math.Log(u1))
				want[i] = float32(r * math.Cos(2*math.Pi*u2))
				want[i+1] = float32(r * math.Sin(2*math.Pi*u2))
			}
			got := srp.gaussRow(d)
			for i := range want {
				if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
					t.Fatalf("seed %d dim %d bit %d: %v, two-call formula %v", seed, d, i, got[i], want[i])
				}
			}
		}
	}
}

func TestMatchesPackedPrefix(t *testing.T) {
	a := []uint64{^uint64(0), ^uint64(0)}
	b := []uint64{0, 0}
	if got := MatchesPacked(a, b, 70); got != 0 {
		t.Errorf("all-different prefix: %d matches", got)
	}
	if got := MatchesPacked(a, a, 70); got != 70 {
		t.Errorf("identical prefix: %d matches, want 70", got)
	}
	if got := MatchesPacked(a, a, 64); got != 64 {
		t.Errorf("exact word prefix: %d", got)
	}
	// Single differing bit inside the partial word.
	c := []uint64{0, 1}
	d := []uint64{0, 0}
	if got := MatchesPacked(c, d, 66); got != 65 {
		t.Errorf("partial word: %d matches, want 65", got)
	}
}

func TestMatchesU32Prefix(t *testing.T) {
	a := []uint32{1, 2, 3, 4}
	b := []uint32{1, 9, 3, 9}
	if MatchesU32(a, b, 4) != 2 {
		t.Error("full compare")
	}
	if MatchesU32(a, b, 1) != 1 {
		t.Error("prefix compare")
	}
	if MatchesU32(a, b, 100) != 2 {
		t.Error("overlong n must clamp")
	}
}

// TestMatchesRangeSumsToPrefix pins the incremental comparison: on every
// hash schedule (Step · k, capped at MaxHashes) the count over [0, lo) plus
// the count over [lo, hi) is the prefix count at hi, and that count is the
// position-by-position one — for word-aligned and mid-word ends, and for a
// MaxHashes that is not a multiple of 64.
func TestMatchesRangeSumsToPrefix(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, sch := range []struct{ maxHashes, step int }{{256, 32}, {256, 64}, {200, 32}, {100, 7}, {65, 1}, {64, 64}} {
		words := (sch.maxHashes + 63) / 64
		pa, pb := make([]uint64, words), make([]uint64, words)
		for w := range pa {
			pa[w] = rng.Uint64()
			pb[w] = pa[w] ^ rng.Uint64()&rng.Uint64() // ≈ 75 % agreement
		}
		ua, ub := make([]uint32, sch.maxHashes), make([]uint32, sch.maxHashes)
		for i := range ua {
			ua[i], ub[i] = uint32(rng.Intn(3)), uint32(rng.Intn(3))
		}
		points := []int{0}
		for n := sch.step; ; n += sch.step {
			points = append(points, min(n, sch.maxHashes))
			if n >= sch.maxHashes {
				break
			}
		}
		for _, hi := range points {
			wantP, wantU := 0, 0
			for p := 0; p < hi; p++ {
				if (pa[p/64]>>(p%64))&1 == (pb[p/64]>>(p%64))&1 {
					wantP++
				}
				if ua[p] == ub[p] {
					wantU++
				}
			}
			if got := MatchesPacked(pa, pb, hi); got != wantP {
				t.Fatalf("%+v: packed prefix %d = %d, want %d", sch, hi, got, wantP)
			}
			if got := MatchesU32(ua, ub, hi); got != wantU {
				t.Fatalf("%+v: u32 prefix %d = %d, want %d", sch, hi, got, wantU)
			}
			for _, lo := range points {
				if lo > hi {
					break
				}
				if got := MatchesPacked(pa, pb, lo) + MatchesRangePacked(pa, pb, lo, hi); got != wantP {
					t.Errorf("%+v: packed [0,%d)+[%d,%d) = %d, want %d", sch, lo, lo, hi, got, wantP)
				}
				if got := MatchesU32(ua, ub, lo) + MatchesRangeU32(ua, ub, lo, hi); got != wantU {
					t.Errorf("%+v: u32 [0,%d)+[%d,%d) = %d, want %d", sch, lo, lo, hi, got, wantU)
				}
			}
		}
	}
}

func TestCosineCollisionRoundTrip(t *testing.T) {
	for _, s := range []float64{-1, -0.5, 0, 0.3, 0.7, 0.95, 1} {
		p := CosineToCollision(s)
		if p < 0 || p > 1 {
			t.Errorf("collision prob %v out of range for s=%v", p, s)
		}
		back := CollisionToCosine(p)
		if math.Abs(back-s) > 1e-9 {
			t.Errorf("round trip s=%v -> %v", s, back)
		}
	}
	// Clamping.
	if CosineToCollision(2) != 1 {
		t.Error("clamp high")
	}
	if CollisionToCosine(-0.5) != CollisionToCosine(0) {
		t.Error("clamp low")
	}
}

func TestCollisionMapMonotoneProperty(t *testing.T) {
	f := func(ar, br uint16) bool {
		a := float64(ar%2001)/1000 - 1
		b := float64(br%2001)/1000 - 1
		if a > b {
			a, b = b, a
		}
		return CosineToCollision(a) <= CosineToCollision(b)+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
