package changepoint

import (
	"math"
	"math/rand"
	"testing"
)

// segCost is an independent L2 segment cost for the oracle (no shared
// code with the implementation under test).
func segCost(x []float64, a, b int) float64 {
	var sum, sumsq float64
	for _, v := range x[a:b] {
		sum += v
		sumsq += v * v
	}
	n := float64(b - a)
	return sumsq - sum*sum/n
}

// bruteForceOptimal finds the minimum penalized segmentation cost of x
// (sum of L2 segment costs + penalty per interior breakpoint, every
// segment at least minSize long) by exhaustive recursion. Exponential,
// for small oracle inputs only.
func bruteForceOptimal(x []float64, penalty float64, minSize int) float64 {
	n := len(x)
	var rec func(start int) float64
	rec = func(start int) float64 {
		best := segCost(x, start, n) // no further breakpoints
		for b := start + minSize; b+minSize <= n; b++ {
			c := segCost(x, start, b) + penalty + rec(b)
			if c < best {
				best = c
			}
		}
		return best
	}
	return rec(0)
}

// segmentationCost prices the segmentation PELT returned under the
// same objective the oracle minimizes.
func segmentationCost(x []float64, bps []int, penalty float64) float64 {
	total := float64(len(bps)) * penalty
	prev := 0
	for _, b := range bps {
		total += segCost(x, prev, b)
		prev = b
	}
	return total + segCost(x, prev, len(x))
}

// TestPELTMatchesBruteForce checks PELT's exactness claim on random
// signals small enough to enumerate: with minSize 1 — where the
// pruning rule is provably safe — its segmentation must price exactly
// at the brute-force optimum (breakpoint positions may differ under
// cost ties, so costs are compared, not indices). With a longer
// minimum segment the pruning is a heuristic (a candidate can be
// discarded before it first becomes admissible), so there the test
// pins validity and that the oracle's optimum is a true lower bound.
func TestPELTMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var sc Scratch
	for trial := 0; trial < 300; trial++ {
		n := 4 + rng.Intn(12)
		minSize := 1 + rng.Intn(3)
		x := make([]float64, n)
		level := rng.Float64() * 10
		for i := range x {
			if rng.Float64() < 0.2 {
				level = rng.Float64() * 10
			}
			x[i] = level + 0.3*rng.NormFloat64()
		}
		penalty := rng.Float64() * 5

		bps := sc.PELT(x, penalty, minSize)
		prev := 0
		for _, b := range bps {
			if b-prev < minSize || b <= 0 || b >= n {
				t.Fatalf("trial %d: invalid breakpoint %d in %v (minSize=%d, n=%d)", trial, b, bps, minSize, n)
			}
			prev = b
		}
		if n-prev < minSize {
			t.Fatalf("trial %d: final segment [%d,%d) shorter than minSize %d", trial, prev, n, minSize)
		}

		got := segmentationCost(x, bps, penalty)
		want := bruteForceOptimal(x, penalty, minSize)
		tol := 1e-9 * (1 + math.Abs(want))
		if minSize == 1 && math.Abs(got-want) > tol {
			t.Fatalf("trial %d: PELT cost %.12f != brute-force optimum %.12f (bps=%v, penalty=%.4f, x=%v)",
				trial, got, want, bps, penalty, x)
		}
		if got < want-tol {
			t.Fatalf("trial %d: PELT cost %.12f beats the brute-force optimum %.12f — oracle bug", trial, got, want)
		}
	}
}

// TestScratchPELTMatchesPackagePELT checks that one Scratch reused
// across signals of varying length segments each exactly as a fresh
// Scratch does: stale buffer contents must not leak between signals.
func TestScratchPELTMatchesPackagePELT(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var reused Scratch
	for trial := 0; trial < 50; trial++ {
		n := 20 + rng.Intn(180)
		x := make([]float64, n)
		level := rng.Float64() * 100
		for i := range x {
			if rng.Float64() < 0.05 {
				level = rng.Float64() * 100
			}
			x[i] = level + rng.NormFloat64()
		}
		pen := BICPenalty(n, 1) * (0.5 + 5*rng.Float64())
		minSize := 1 + rng.Intn(10)

		want := new(Scratch).PELT(x, pen, minSize)
		got := reused.PELT(x, pen, minSize)
		if len(got) != len(want) {
			t.Fatalf("trial %d: reused scratch %v != fresh scratch %v", trial, got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d: reused scratch %v != fresh scratch %v", trial, got, want)
			}
		}
	}
}

// TestScratchPELTZeroAlloc verifies the steady-state allocation claim
// the analysis pipeline relies on.
func TestScratchPELTZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	x := step(rng, 0.4, [2]float64{50, 1}, [2]float64{50, 6})
	pen := BICPenalty(len(x), 0.16) * 5
	var sc Scratch
	sc.PELT(x, pen, 5) // warm up buffers
	allocs := testing.AllocsPerRun(100, func() {
		sc.PELT(x, pen, 5)
		sc.EstimateNoise(x)
		sc.SegmentMeans(x, sc.bps)
	})
	if allocs != 0 {
		t.Errorf("steady-state PELT allocates %.1f objects per run, want 0", allocs)
	}
}
