package rng

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// splitmix returns the i-th splitmix64 output: well-spread 64-bit seeds,
// negative ones included.
func splitmix(i uint64) int64 {
	z := i*0x9E3779B97F4A7C15 + 0x9E3779B97F4A7C15
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return int64(z ^ z>>31)
}

// edgeSeeds are the seeds at math/rand's normalization boundaries: zero
// and its replacement, multiples of 2³¹−1 (which also normalize to zero),
// their neighbours on both sides, and the int64 extremes.
func edgeSeeds() []int64 {
	seeds := []int64{0, 1, -1, zeroTo, -zeroTo, math.MinInt64, math.MaxInt64,
		math.MinInt64 + 1, math.MaxInt64 - 1}
	// The largest k leaves k·(2³¹−1) + r inside int64 for every r below.
	for _, k := range []int64{1, 2, 3, 1 << 20, math.MaxInt64/m31 - 1} {
		for _, r := range []int64{0, 1, 2, m31 - 1, zeroTo} {
			seeds = append(seeds, k*m31+r, -(k*m31 + r))
		}
		seeds = append(seeds, k*m31-1, -(k*m31 - 1))
	}
	return seeds
}

// checkRaw compares n raw Uint64 draws of src, reseeded with seed, against
// a fresh rand.NewSource(seed).
func checkRaw(t *testing.T, src *Source, seed int64, n int) {
	t.Helper()
	want := rand.NewSource(seed).(rand.Source64)
	src.Seed(seed)
	for k := 0; k < n; k++ {
		if w, g := want.Uint64(), src.Uint64(); w != g {
			t.Fatalf("seed %d draw %d: Uint64 %#x, math/rand %#x", seed, k, g, w)
		}
	}
}

// checkRand compares the draws the callers make — Float64, ExpFloat64,
// Intn and Int63n, interleaved — through a rand.Rand over src that is
// reseeded the way a Monte-Carlo chunk or page task reseeds it, against a
// rand.Rand over a fresh rand.NewSource(seed).
func checkRand(t *testing.T, r *rand.Rand, seed int64, n int) {
	t.Helper()
	want := rand.New(rand.NewSource(seed))
	r.Seed(seed)
	for k := 0; k < n; k++ {
		var w, g uint64
		switch k % 4 {
		case 0:
			w, g = math.Float64bits(want.Float64()), math.Float64bits(r.Float64())
		case 1:
			w, g = math.Float64bits(want.ExpFloat64()), math.Float64bits(r.ExpFloat64())
		case 2:
			bound := 1 + k%97
			w, g = uint64(want.Intn(bound)), uint64(r.Intn(bound))
		case 3:
			bound := int64(1)<<62 + int64(k)
			w, g = uint64(want.Int63n(bound)), uint64(r.Int63n(bound))
		}
		if w != g {
			t.Fatalf("seed %d draw %d (kind %d): got %#x, math/rand %#x", seed, k, k%4, g, w)
		}
	}
}

// TestSourceMatchesMathRand is the equivalence proof: for the edge seeds
// and 10,000 splitmix seeds, 2,000 raw draws (past the 607-word register's
// wrap) and 500 interleaved rand.Rand draws match math/rand exactly. One
// Source and one Rand are reseeded throughout, as the callers do.
func TestSourceMatchesMathRand(t *testing.T) {
	seeds := edgeSeeds()
	for i := 0; i < 10000; i++ {
		seeds = append(seeds, splitmix(uint64(i)))
	}
	src := NewSource(0)
	r := rand.New(NewSource(0))
	for _, seed := range seeds {
		checkRaw(t, src, seed, 2000)
		checkRand(t, r, seed, 500)
	}
}

// FuzzSourceMatchesMathRand runs the equivalence check on arbitrary seeds
// and draw counts.
func FuzzSourceMatchesMathRand(f *testing.F) {
	for _, seed := range edgeSeeds() {
		f.Add(seed, uint16(1300))
	}
	f.Fuzz(func(t *testing.T, seed int64, n uint16) {
		src := NewSource(splitmix(uint64(n)))
		checkRaw(t, src, seed, int(n))
		checkRand(t, rand.New(src), seed, int(n))
	})
}

// TestSourceAllocs guards the reason callers reseed one Source instead of
// building a source per item: a reseed and 1,000 draws allocate nothing.
func TestSourceAllocs(t *testing.T) {
	r := rand.New(NewSource(0))
	seed := int64(0)
	allocs := testing.AllocsPerRun(100, func() {
		seed++
		r.Seed(seed)
		for k := 0; k < 250; k++ {
			r.Float64()
			r.ExpFloat64()
			r.Intn(10)
			r.Int63n(1 << 40)
		}
	})
	if allocs != 0 {
		t.Fatalf("Seed + 1000 draws: %.1f allocs, want 0", allocs)
	}
}

var sinkFloat float64

// BenchmarkSourceSeed times one reseed plus d Float64 draws through a
// reseeded rand.Rand, for math/rand's source and for Source. The draw
// counts are the shapes of the callers: a landing page's chains (10), an
// mc-baseline scenario (247) and an mc-dns-deep scenario (617).
func BenchmarkSourceSeed(b *testing.B) {
	arms := []struct {
		name string
		src  rand.Source
	}{
		{"math-rand", rand.NewSource(0)},
		{"rng", NewSource(0)},
	}
	for _, draws := range []int{10, 247, 617} {
		for _, arm := range arms {
			b.Run(fmt.Sprintf("%s/draws=%d", arm.name, draws), func(b *testing.B) {
				r := rand.New(arm.src)
				var sum float64
				for i := 0; i < b.N; i++ {
					r.Seed(int64(i))
					for k := 0; k < draws; k++ {
						sum += r.Float64()
					}
				}
				sinkFloat = sum
			})
		}
	}
}
