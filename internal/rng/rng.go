// Package rng provides Source, a math/rand source that reseeds about five
// times faster than the one rand.NewSource returns and draws exactly the
// same values, for every seed and every draw. Callers that reseed one
// generator per work item (a Monte-Carlo scenario, a landing page) keep
// *rand.Rand as their draw API and wrap a Source instead.
//
// math/rand's source is an additive lagged-Fibonacci generator over a
// 607-word register with its tap at 273. Seed fills the register from
// seedrand, the Lehmer generator x → 48271·x mod (2³¹−1), started at the
// normalized seed x₀ and stepped 1,881 times, each step waiting on the one
// before:
//
//	vec[i] = x₂₁₊₃ᵢ<<40 ^ x₂₂₊₃ᵢ<<20 ^ x₂₃₊₃ᵢ ^ cooked[i]
//
// The jump-ahead identity xₙ = x₀·48271ⁿ mod (2³¹−1) lets every xₙ be
// computed on its own: one multiply by a precomputed power and a Mersenne
// reduction. seedrand's Schrage step computes that same product exactly
// for every x in [1, 2³¹−2], the only values it is given, so the words are
// bit for bit the ones math/rand writes; they just no longer wait on one
// another. The draw step is math/rand's own add-and-store, so the stream
// that follows is identical too.
//
// cooked is math/rand's unexported rngCooked table. It is derived once, at
// package init, from math/rand's public output (see deriveCooked), so no
// 607-entry table is copied here and no reflection reaches into math/rand.
package rng

import "math/rand"

const (
	length = 607       // register words
	tap    = 273       // lag of the second term
	m31    = 1<<31 - 1 // seedrand's modulus, a Mersenne prime
	mult   = 48271     // seedrand's multiplier
	zeroTo = 89482311  // math/rand's replacement for a seed ≡ 0
	mask63 = 1<<63 - 1 // Int63's mask
	skip   = 20        // seedrand steps Seed discards before word 0
)

// powers[i][j] is 48271^(21+3i+j) mod (2³¹−1): the multiplier that takes
// x₀ to the j-th seedrand value of register word i.
var powers = func() (p [length][3]uint64) {
	x := uint64(1)
	for n := 0; n < skip; n++ {
		x = x * mult % m31
	}
	for i := range p {
		for j := range p[i] {
			x = x * mult % m31
			p[i][j] = x
		}
	}
	return p
}()

var cooked = deriveCooked()

// Source is math/rand's generator with a jump-ahead Seed. It implements
// rand.Source64. The zero value is not seeded: use NewSource, or call Seed
// before the first draw. A Source is not safe for concurrent use.
type Source struct {
	tap, feed int
	vec       [length]uint64
}

// NewSource returns a Source seeded with seed: it draws what
// rand.NewSource(seed) draws.
func NewSource(seed int64) *Source {
	s := new(Source)
	s.Seed(seed)
	return s
}

// Seed resets the generator to the state rand.NewSource(seed) starts in.
func (s *Source) Seed(seed int64) {
	s.tap, s.feed = 0, length-tap
	x := uint64(normalize(seed))
	for i := range s.vec {
		p := &powers[i]
		s.vec[i] = mulmod(x, p[0])<<40 ^ mulmod(x, p[1])<<20 ^ mulmod(x, p[2]) ^ cooked[i]
	}
}

// Uint64 returns the next 64-bit value of the stream.
func (s *Source) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += length
	}
	s.feed--
	if s.feed < 0 {
		s.feed += length
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return x
}

// Int63 returns the next value with its top bit cleared.
func (s *Source) Int63() int64 {
	return int64(s.Uint64() & mask63)
}

// normalize maps a seed to seedrand's x₀ in [1, 2³¹−2] as math/rand does.
func normalize(seed int64) int64 {
	seed %= m31
	if seed < 0 {
		seed += m31
	}
	if seed == 0 {
		seed = zeroTo
	}
	return seed
}

// mulmod returns x·y mod (2³¹−1) for x, y in [1, 2³¹−2]. Two folds of the
// high bits onto the low ones reduce the product without a branch. The
// second fold leaves 2³¹−1 unreduced only for a product ≡ 0, which a prime
// modulus rules out for nonzero factors.
func mulmod(x, y uint64) uint64 {
	p := x * y
	p = p&m31 + p>>31
	return p&m31 + p>>31
}

// deriveCooked recovers math/rand's rngCooked table from rand.NewSource(1).
// That source's draws continue the lagged-Fibonacci sequence
// s[n] = s[n-607] + s[n-273] (mod 2⁶⁴) from its seeded register
// s[0..606]: the k-th draw is s[606+k]. Read backwards,
// s[m] = s[m+607] − s[m+334], so the first 607 draws give s[606] down to
// s[273], and those give s[272] down to s[0]. Cell c of the seeded
// register holds s[(333−c) mod 607] (cell 333 is the first one fed), and
// XORing off seed 1's seedrand part, where each xₙ is its power, leaves
// rngCooked[c].
func deriveCooked() (c [length]uint64) {
	src := rand.NewSource(1).(rand.Source64)
	var seq [2 * length]uint64
	for n := length; n < len(seq); n++ {
		seq[n] = src.Uint64()
	}
	for m := length - 1; m >= 0; m-- {
		seq[m] = seq[m+length] - seq[m+length-tap]
	}
	for i := range c {
		p := &powers[i]
		c[i] = seq[(length-tap-1-i+length)%length] ^ p[0]<<40 ^ p[1]<<20 ^ p[2]
	}
	return c
}
