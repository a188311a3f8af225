package stats

import "math"

// WilsonZ is the critical value of Wilson's intervals: 95%.
const WilsonZ = 1.96

// Wilson returns the Wilson score interval for a binomial proportion:
// the [lo, hi] confidence bounds on the true fraction after observing
// successes out of n trials, at critical value WilsonZ. It is
// the interval the census report puts on "what fraction of paths is
// contention-dominated?" — unlike the normal approximation it behaves
// sensibly near 0, near 1, and at small n (never escaping [0, 1]).
//
// n <= 0 returns the vacuous interval [0, 1]: no data, no constraint.
func Wilson(successes, n int) (lo, hi float64) {
	if n <= 0 {
		return 0, 1
	}
	z := float64(WilsonZ) // a variable, so z*z rounds in float64
	p := float64(successes) / float64(n)
	nf := float64(n)
	z2 := z * z
	denom := 1 + z2/nf
	center := (p + z2/(2*nf)) / denom
	half := z / denom * math.Sqrt(p*(1-p)/nf+z2/(4*nf*nf))
	lo = center - half
	hi = center + half
	if lo < 0 {
		lo = 0
	}
	if hi > 1 {
		hi = 1
	}
	return lo, hi
}
