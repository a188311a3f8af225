package sim

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// mixedDraw appends to out what op k of a mixed sequence draws from r:
// every rand.Rand method the tree uses, with rejection samplers
// (ExpFloat64, NormFloat64) and multi-draw ones (Perm) among them, so
// the underlying source is read a varying number of times per op.
func mixedDraw(r *rand.Rand, k int, out []uint64) []uint64 {
	switch k % 7 {
	case 0:
		return append(out, uint64(r.Int63()))
	case 1:
		return append(out, r.Uint64())
	case 2:
		return append(out, math.Float64bits(r.Float64()))
	case 3:
		return append(out, math.Float64bits(r.ExpFloat64()))
	case 4:
		return append(out, math.Float64bits(r.NormFloat64()))
	case 5:
		return append(out, uint64(r.Intn(1+k)))
	default:
		for _, v := range r.Perm(1 + k%9) {
			out = append(out, uint64(v))
		}
		return out
	}
}

// checkRandStream takes e.Rand(seed) and rand.New(rand.NewSource(seed))
// through ops mixed draws, re-seeding both with seed2 before op
// reseedAt, and fails at the first op whose draws differ.
func checkRandStream(t testing.TB, e *Engine, seed, seed2 int64, ops, reseedAt int) {
	t.Helper()
	got := e.Rand(seed)
	want := rand.New(rand.NewSource(seed))
	var g, w []uint64
	for k := 0; k < ops; k++ {
		if k == reseedAt {
			got.Seed(seed2)
			want.Seed(seed2)
		}
		g = mixedDraw(got, k, g[:0])
		w = mixedDraw(want, k, w[:0])
		if !slices.Equal(g, w) {
			t.Fatalf("seed %d (re-seeded to %d before op %d): op %d drew %v, math/rand %v",
				seed, seed2, reseedAt, k, g, w)
		}
	}
}

// TestEngineRandMatchesMathRand holds Engine.Rand to its promise: the
// stream is math/rand's for the same seed, across the seeds Seed
// normalizes specially (0, multiples of 2³¹−1, the int64 extremes) and
// 1,000 random ones, through the draws that still read seeded words
// (the first 273 and 334 source draws) and past the state's 607 words,
// on new and reused generators and after a re-seed part-way through.
func TestEngineRandMatchesMathRand(t *testing.T) {
	seeds := []int64{0, 1, -1, 89482311, int32max, -int32max, 2 * int32max, math.MinInt64, math.MaxInt64}
	meta := rand.New(rand.NewSource(42))
	for i := 0; i < 1000; i++ {
		seeds = append(seeds, int64(meta.Uint64()))
	}
	var e Engine
	for i, seed := range seeds {
		// Every fifth seed starts on a new engine, so the generator is
		// new; the rest re-seed the one the last run used.
		if i%5 == 0 {
			e = Engine{}
		}
		e.Reset()
		ops, reseedAt := 1500, -1
		if i%2 == 1 {
			ops, reseedAt = 2000, 100+meta.Intn(800)
		}
		checkRandStream(t, &e, seed, seeds[(i+1)%len(seeds)], ops, reseedAt)
	}
}

// FuzzEngineRand checks any seed, op count and re-seed point: a
// generator that already drew from another seed is handed back by
// Reset, re-seeded by Rand and must then match math/rand op for op.
func FuzzEngineRand(f *testing.F) {
	f.Add(int64(0), int64(1), uint16(700), uint16(300))
	f.Add(int64(-1), int64(int32max), uint16(1500), uint16(1))
	f.Add(int64(math.MinInt64), int64(math.MaxInt64), uint16(400), uint16(399))
	f.Add(int64(89482311), int64(2*int32max), uint16(1000), uint16(2000))
	f.Fuzz(func(t *testing.T, seed, seed2 int64, ops, reseedAt uint16) {
		var e Engine
		r := e.Rand(seed2)
		for k := 0; k < int(reseedAt%700); k++ {
			r.Int63()
		}
		e.Reset()
		checkRandStream(t, &e, seed, seed2, int(ops%3000), int(reseedAt))
	})
}

var randSink float64

// BenchmarkEngineRandSeed is what a churn user's generator costs to
// set up: a re-seed and three draws, on Engine.Rand and on math/rand.
func BenchmarkEngineRandSeed(b *testing.B) {
	var e Engine
	for _, bc := range []struct {
		name string
		r    *rand.Rand
	}{{"engine", e.Rand(1)}, {"math-rand", rand.New(rand.NewSource(1))}} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				bc.r.Seed(int64(i))
				randSink += bc.r.Float64() + bc.r.ExpFloat64() + float64(bc.r.Intn(100))
			}
		})
	}
}

// BenchmarkEngineRandDraw is the cost of one Float64 from a generator
// past its first 334 draws, on Engine.Rand and on math/rand.
func BenchmarkEngineRandDraw(b *testing.B) {
	var e Engine
	for _, bc := range []struct {
		name string
		r    *rand.Rand
	}{{"engine", e.Rand(1)}, {"math-rand", rand.New(rand.NewSource(1))}} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < rngLen; i++ {
				bc.r.Int63()
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				randSink += bc.r.Float64()
			}
		})
	}
}
