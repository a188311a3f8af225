// Package changepoint implements offline change-point detection on
// univariate signals, following the taxonomy of Truong, Oudre &
// Vayatis ("Selective review of offline change point detection
// methods", Signal Processing 2020 — the paper's reference [60]): the
// exact pruned dynamic program PELT over an L2 (mean-shift) segment
// cost, with a BIC penalty and a robust noise estimate.
//
// The M-Lab analysis in §3.1 uses PELT to find flows whose
// achieved throughput level changed during their lifetime — the
// passive signature of possible CCA contention.
package changepoint

import (
	"math"
	"sort"
)

// costL2 provides O(1) mean-shift segment costs via prefix sums:
// cost(a,b) = sum_{i in [a,b)} (x_i - mean)^2.
type costL2 struct {
	cum   []float64 // prefix sums of x
	cumsq []float64 // prefix sums of x^2
}

// cost returns the L2 cost of segment [a, b), 0 <= a < b <= n.
func (c *costL2) cost(a, b int) float64 {
	n := float64(b - a)
	if n <= 0 {
		return 0
	}
	s := c.cum[b] - c.cum[a]
	sq := c.cumsq[b] - c.cumsq[a]
	return sq - s*s/n
}

// mean returns the mean of segment [a, b).
func (c *costL2) mean(a, b int) float64 {
	if b <= a {
		return 0
	}
	return (c.cum[b] - c.cum[a]) / float64(b-a)
}

// Scratch holds the working arrays the detector needs, so a caller
// that runs it over many traces (the M-Lab analysis pipeline runs
// one per flow) pays zero steady-state allocations: every method
// reuses the scratch's buffers and returns slices into them, valid
// only until the next call on the same Scratch. The zero value is
// ready for use. A Scratch must not be shared between goroutines.
type Scratch struct {
	cost  costL2
	f     []float64
	prev  []int
	cand  []int
	cands []float64 // f[s] + cost(s,t) per candidate, cached between the min and pruning passes
	diffs []float64
	bps   []int
	means []float64
}

// growF returns a length-n float64 slice backed by buf's array.
func growF(buf *[]float64, n int) []float64 {
	if cap(*buf) < n {
		*buf = make([]float64, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

// growI returns a length-n int slice backed by buf's array.
func growI(buf *[]int, n int) []int {
	if cap(*buf) < n {
		*buf = make([]int, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

// prefix (re)fills the scratch's prefix-sum arrays for x.
func (sc *Scratch) prefix(x []float64) {
	n := len(x)
	sc.cost.cum = growF(&sc.cost.cum, n+1)
	sc.cost.cumsq = growF(&sc.cost.cumsq, n+1)
	sc.cost.cum[0], sc.cost.cumsq[0] = 0, 0
	for i, v := range x {
		sc.cost.cum[i+1] = sc.cost.cum[i] + v
		sc.cost.cumsq[i+1] = sc.cost.cumsq[i] + v*v
	}
}

// PELT computes the optimal segmentation of x under an L2 cost with a
// per-changepoint penalty, using the PELT pruning rule (exact, and
// linear time when changepoints are frequent). It returns the sorted
// interior breakpoints (indices where a new segment starts), aliasing
// the scratch until the next call. minSize bounds the minimum segment
// length; values < 1 are treated as 1.
func (sc *Scratch) PELT(x []float64, penalty float64, minSize int) []int {
	n := len(x)
	if n == 0 {
		return nil
	}
	if minSize < 1 {
		minSize = 1
	}
	if penalty < 0 {
		penalty = 0
	}
	sc.prefix(x)
	c := &sc.cost

	// f[t] = optimal cost of x[0:t]; prev[t] = last breakpoint.
	f := growF(&sc.f, n+1)
	prev := growI(&sc.prev, n+1)
	for i := range f {
		f[i] = math.Inf(1)
		prev[i] = 0
	}
	f[0] = -penalty
	sc.cand = growI(&sc.cand, 1)
	sc.cand[0] = 0
	candidates := sc.cand
	sc.cands = growF(&sc.cands, n+1)
	for t := minSize; t <= n; t++ {
		// One pass computes f[s] + cost(s,t) for every candidate; the
		// minimum over admissible s (segment >= minSize) sets f[t], and
		// the cached values drive the pruning pass below without a
		// second cost evaluation per candidate.
		bestCost := math.Inf(1)
		bestS := 0
		for i, s := range candidates {
			v := f[s] + c.cost(s, t)
			sc.cands[i] = v
			if t-s < minSize {
				continue
			}
			if v+penalty < bestCost {
				bestCost = v + penalty
				bestS = s
			}
		}
		f[t] = bestCost
		prev[t] = bestS
		// PELT pruning: discard s that can never be optimal again.
		kept := candidates[:0]
		for i, s := range candidates {
			if sc.cands[i] <= f[t] {
				kept = append(kept, s)
			}
		}
		candidates = append(kept, t)
	}
	sc.cand = candidates[:0]

	// Backtrack (yields strictly decreasing breakpoints), then reverse
	// into ascending order.
	bps := sc.bps[:0]
	t := n
	for t > 0 {
		s := prev[t]
		if s == 0 {
			break
		}
		bps = append(bps, s)
		t = s
	}
	for i, j := 0, len(bps)-1; i < j; i, j = i+1, j-1 {
		bps[i], bps[j] = bps[j], bps[i]
	}
	sc.bps = bps
	return bps
}

// EstimateNoise estimates the noise variance of x from first
// differences (robust to level shifts): Var(diff)/2 using the median
// absolute deviation, scaled for Gaussian noise.
func (sc *Scratch) EstimateNoise(x []float64) float64 {
	if len(x) < 3 {
		return 0
	}
	diffs := growF(&sc.diffs, len(x)-1)
	for i := 1; i < len(x); i++ {
		diffs[i-1] = math.Abs(x[i] - x[i-1])
	}
	sort.Float64s(diffs)
	mad := diffs[len(diffs)/2]
	// For Gaussian noise, MAD of differences = sigma*sqrt(2)*0.6745...;
	// invert: sigma = mad / (0.6745*sqrt(2)).
	sigma := mad / (0.6745 * math.Sqrt2)
	return sigma * sigma
}

// SegmentMeans returns the mean of x over each segment induced by
// bps, aliasing the scratch until the next call. bps must be sorted;
// out-of-range or non-increasing entries are skipped.
func (sc *Scratch) SegmentMeans(x []float64, bps []int) []float64 {
	sc.prefix(x)
	n := len(x)
	out := sc.means[:0]
	prevB := 0
	for _, b := range bps {
		if b <= prevB || b >= n {
			continue
		}
		out = append(out, sc.cost.mean(prevB, b))
		prevB = b
	}
	out = append(out, sc.cost.mean(prevB, n))
	sc.means = out
	return out
}

// BICPenalty returns the Bayesian-information-criterion penalty
// 2 * sigma^2 * log(n) for a signal of length n with noise variance
// sigma2, the conventional default for L2 costs.
func BICPenalty(n int, sigma2 float64) float64 {
	if n < 2 {
		return 0
	}
	return 2 * sigma2 * math.Log(float64(n))
}
