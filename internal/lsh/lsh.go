// Package lsh implements the locality sensitive hashing families PLASMA-HD
// sketches with: minwise hashing for Jaccard similarity and signed random
// projections for cosine similarity. Following §2.4, sketches are stored as
// single concatenated hash sequences (not banded hash tables) so that a
// candidate pair's similarity can be estimated incrementally by comparing
// prefixes of the two sketches — the access pattern BayesLSH requires.
package lsh

import (
	"math"
	"math/bits"
	"math/rand"
	"sync/atomic"

	"plasmahd/internal/vec"
)

// splitmix64 is a fast, well-mixed 64-bit hash used to derive per-hash
// pseudo-random streams deterministically.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// MinHasher produces K-value minwise signatures whose per-position collision
// probability equals the Jaccard similarity of the index sets (Eq 4.1).
type MinHasher struct {
	K     int
	seeds []uint64
}

// NewMinHasher creates a deterministic family of k minwise hash functions.
func NewMinHasher(k int, seed int64) *MinHasher {
	m := &MinHasher{K: k, seeds: make([]uint64, k)}
	rng := rand.New(rand.NewSource(seed))
	for i := range m.seeds {
		m.seeds[i] = rng.Uint64() | 1
	}
	return m
}

// Sketch returns the k minimum hash values of the vector's index set.
//
// The loop is seed-major: each index's key ix + 0x9e3779b97f4a7c15 is
// computed once, then four seeds at a time sweep the row's keys, each
// seed's running minimum held in a local and stored into sig once. An
// index-major loop loads and stores sig[i] behind a branch and a bounds
// check for every (index, seed); this form is pure integer work with four
// independent hash chains in flight, about two thirds of the cost. The
// minima do not depend on the order they are taken in, so every signature
// is the index-major loop's bit for bit, on every architecture.
func (m *MinHasher) Sketch(v vec.Sparse) []uint32 {
	sig := make([]uint32, m.K)
	var buf [128]uint64 // the keys of a row of up to 128 indices, off the heap
	xs := buf[:0]
	for _, ix := range v.Indices {
		xs = append(xs, uint64(ix)+0x9e3779b97f4a7c15)
	}
	seeds := m.seeds
	i := 0
	for ; i+4 <= len(seeds); i += 4 {
		s0, s1, s2, s3 := seeds[i], seeds[i+1], seeds[i+2], seeds[i+3]
		m0, m1, m2, m3 := uint32(math.MaxUint32), uint32(math.MaxUint32), uint32(math.MaxUint32), uint32(math.MaxUint32)
		for _, x := range xs {
			m0 = min(m0, uint32(splitmix64(x^s0)))
			m1 = min(m1, uint32(splitmix64(x^s1)))
			m2 = min(m2, uint32(splitmix64(x^s2)))
			m3 = min(m3, uint32(splitmix64(x^s3)))
		}
		sig[i], sig[i+1], sig[i+2], sig[i+3] = m0, m1, m2, m3
	}
	for ; i < len(seeds); i++ {
		s, m0 := seeds[i], uint32(math.MaxUint32)
		for _, x := range xs {
			m0 = min(m0, uint32(splitmix64(x^s)))
		}
		sig[i] = m0
	}
	return sig
}

// MatchesU32 counts equal positions among the first n entries of two
// signatures.
func MatchesU32(a, b []uint32, n int) int { return MatchesRangeU32(a, b, 0, n) }

// MatchesRangeU32 counts equal positions in [lo, hi) of two signatures, hi
// clamped to the signature length. Counting a prefix in steps — [0, n₁),
// [n₁, n₂), … — sums to the count of the whole prefix, so an incremental
// comparison scans each position once.
func MatchesRangeU32(a, b []uint32, lo, hi int) int {
	hi = min(hi, len(a))
	if lo >= hi {
		return 0
	}
	a, b = a[lo:hi], b[lo:hi]
	m := 0
	for i := range a {
		if a[i] == b[i] {
			m++
		}
	}
	return m
}

// SRP produces bit sketches from signed random projections: bit i is the
// sign of the dot product with a pseudo-random Gaussian direction. Two
// vectors agree on a bit with probability 1 - θ/π where θ is the angle
// between them (Goemans-Williamson), the collision model BayesLSH inverts
// for cosine similarity.
type SRP struct {
	Bits int
	seed uint64
	// dirs caches per-dimension Gaussian rows lazily: dirs[d] points at the
	// row whose i-th entry is the d-th coordinate of direction i. float32
	// halves the footprint; the precision is irrelevant next to sampling
	// noise. The slots are atomic pointers so concurrent Sketch calls can
	// populate the cache without a lock: the row content is a pure function
	// of (seed, d), so racing fills compute identical bytes and the CAS
	// merely picks one allocation as canonical.
	dirs []atomic.Pointer[[]float32]
}

// NewSRP creates a deterministic signed-random-projection sketcher of the
// given bit length over vectors of dimension dim. The returned sketcher is
// safe for concurrent Sketch calls.
func NewSRP(bits, dim int, seed int64) *SRP {
	return &SRP{Bits: bits, seed: uint64(seed), dirs: make([]atomic.Pointer[[]float32], dim)}
}

// gaussRow generates the cached Gaussian coordinates for dimension d.
func (s *SRP) gaussRow(d int) []float32 {
	if p := s.dirs[d].Load(); p != nil {
		return *p
	}
	row := make([]float32, s.Bits)
	// Box-Muller on splitmix64 streams keyed by (seed, dim, bit pair).
	base := splitmix64(s.seed ^ uint64(d)*0x9e3779b97f4a7c15)
	for i := 0; i < s.Bits; i += 2 {
		u1bits := splitmix64(base ^ uint64(i))
		u2bits := splitmix64(base ^ uint64(i) ^ 0xdeadbeefcafef00d)
		u1 := (float64(u1bits>>11) + 0.5) / (1 << 53)
		u2 := (float64(u2bits>>11) + 0.5) / (1 << 53)
		r := math.Sqrt(-2 * math.Log(u1))
		sin, cos := math.Sincos(2 * math.Pi * u2)
		row[i] = float32(r * cos)
		if i+1 < s.Bits {
			row[i+1] = float32(r * sin)
		}
	}
	if s.dirs[d].CompareAndSwap(nil, &row) {
		return row
	}
	return *s.dirs[d].Load()
}

// Sketch returns the bit-packed signature of v. Vectors sketched by the same
// SRP are comparable position-wise. A row without values (a Jaccard row) is
// its index set, every index weighing one.
func (s *SRP) Sketch(v vec.Sparse) []uint64 {
	words := (s.Bits + 63) / 64
	acc := make([]float64, s.Bits)
	for k, ix := range v.Indices {
		row := s.gaussRow(int(ix))
		w := 1.0
		if v.Values != nil {
			w = v.Values[k]
		}
		for i := 0; i < s.Bits; i++ {
			acc[i] += float64(w * float64(row[i])) // rounded: no fused multiply-add
		}
	}
	sig := make([]uint64, words)
	for i, a := range acc {
		if a >= 0 {
			sig[i/64] |= 1 << uint(i%64)
		}
	}
	return sig
}

// MatchesPacked counts agreeing bits among the first n positions of two
// bit-packed signatures.
func MatchesPacked(a, b []uint64, n int) int { return MatchesRangePacked(a, b, 0, n) }

// MatchesRangePacked counts agreeing bits in positions [lo, hi) of two
// bit-packed signatures (bit p is bit p%64 of word p/64), hi clamped to the
// signature length. Either end may fall inside a word — a Step of 32 against
// 64-bit words, a MaxHashes that is not a multiple of 64 — so the first and
// last words are masked; the words between are compared whole.
func MatchesRangePacked(a, b []uint64, lo, hi int) int {
	hi = min(hi, 64*len(a))
	if lo >= hi {
		return 0
	}
	first, last := lo>>6, (hi-1)>>6
	loMask := ^uint64(0) << uint(lo&63)
	hiMask := ^uint64(0) >> uint(63-(hi-1)&63)
	if first == last {
		return hi - lo - bits.OnesCount64((a[first]^b[first])&loMask&hiMask)
	}
	m := hi - lo - bits.OnesCount64((a[first]^b[first])&loMask) - bits.OnesCount64((a[last]^b[last])&hiMask)
	for w := first + 1; w < last; w++ {
		m -= bits.OnesCount64(a[w] ^ b[w])
	}
	return m
}

// CosineToCollision maps a cosine similarity to the SRP per-bit collision
// probability p = 1 - arccos(s)/π.
func CosineToCollision(s float64) float64 {
	if s > 1 {
		s = 1
	}
	if s < -1 {
		s = -1
	}
	return 1 - math.Acos(s)/math.Pi
}

// CollisionToCosine inverts CosineToCollision: s = cos(π(1-p)).
func CollisionToCosine(p float64) float64 {
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	return math.Cos(math.Pi * (1 - p))
}
