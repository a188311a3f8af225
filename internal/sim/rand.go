package sim

import "math/rand"

// seedSource is math/rand's generator with an O(1) Seed. The standard
// library's rngSource is an additive lagged Fibonacci generator over
// 607 words, vec[feed] += vec[tap], whose Seed fills all 607 words from
// 1,841 steps of the Lehmer generator x ← 48271·x mod (2³¹−1), a cost
// every churn user of a many-flow cell pays for a handful of draws.
// math/rand computes each Lehmer step exactly (Schrage's method), so
// the steps have a closed form and word i is a function of the
// normalized seed alone:
//
//	x(n)    = seed · 48271ⁿ mod (2³¹−1)
//	word(i) = x(21+3i)<<40 ^ x(22+3i)<<20 ^ x(23+3i) ^ rngCooked[i]
//
// seedSource.Seed keeps only the normalized seed, and a draw computes
// a word from seedPow the first time it reads it. Draw k reads the
// feed word 334−k and the tap word 607−k (both wrap at 0). Each of the
// first 334 draws finds its feed word unwritten; the tap word is
// unwritten only in the first 273, and after that it is one the feed
// already wrote. From draw 335 on the state is rngSource's, word for
// word.
//
// Int63 and Uint64 each carry the step in full, so a draw makes no
// call: the step is too large to inline, and a shared one would add a
// call to every draw.
type seedSource struct {
	tap, feed int
	// fresh counts the draws left whose feed word is still unwritten.
	fresh int
	seed  uint64 // normalized as rngSource.Seed does, in [1, 2³¹−2]
	vec   [rngLen]int64
}

const (
	rngLen   = 607
	rngTap   = 273
	rngMask  = 1<<63 - 1
	int32max = 1<<31 - 1
)

// NewRand returns a generator that draws the stream
// rand.New(rand.NewSource(seed)) draws, on a seedSource: seeding it,
// and re-seeding it through its Seed method, costs O(1).
func NewRand(seed int64) *rand.Rand {
	src := new(seedSource)
	src.Seed(seed)
	return rand.New(src)
}

// seedPow[i] holds 48271ⁿ mod (2³¹−1) for the three Lehmer steps n
// that make word i.
var seedPow = func() (t [rngLen][3]uint64) {
	x := uint64(1)
	for n := 1; n <= 20+3*rngLen; n++ {
		x = x * 48271 % int32max
		if n > 20 {
			t[(n-21)/3][(n-21)%3] = x
		}
	}
	return t
}()

// Seed implements rand.Source: it puts the source in the state
// rngSource.Seed would, without filling it.
func (s *seedSource) Seed(seed int64) {
	s.tap = 0
	s.feed = rngLen - rngTap
	s.fresh = rngLen - rngTap
	seed = seed % int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = 89482311
	}
	s.seed = uint64(seed)
}

// seedWord is word i of the state rngSource.Seed leaves for seed.
func seedWord(seed uint64, i int) int64 {
	p := &seedPow[i]
	return int64(seed*p[0]%int32max)<<40 ^ int64(seed*p[1]%int32max)<<20 ^ int64(seed*p[2]%int32max) ^ rngCooked[i]
}

// Int63 implements rand.Source.
func (s *seedSource) Int63() int64 {
	tap, feed := s.tap-1, s.feed-1
	if tap < 0 {
		tap += rngLen
	}
	if feed < 0 {
		feed += rngLen
	}
	s.tap, s.feed = tap, feed
	if s.fresh > 0 {
		s.fresh--
		s.vec[feed] = seedWord(s.seed, feed)
		if tap >= rngLen-rngTap {
			s.vec[tap] = seedWord(s.seed, tap)
		}
	}
	x := s.vec[feed] + s.vec[tap]
	s.vec[feed] = x
	return x & rngMask
}

// Uint64 implements rand.Source64; it is Int63's step without the mask.
func (s *seedSource) Uint64() uint64 {
	tap, feed := s.tap-1, s.feed-1
	if tap < 0 {
		tap += rngLen
	}
	if feed < 0 {
		feed += rngLen
	}
	s.tap, s.feed = tap, feed
	if s.fresh > 0 {
		s.fresh--
		s.vec[feed] = seedWord(s.seed, feed)
		if tap >= rngLen-rngTap {
			s.vec[tap] = seedWord(s.seed, tap)
		}
	}
	x := s.vec[feed] + s.vec[tap]
	s.vec[feed] = x
	return uint64(x)
}
