package changepoint

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// step builds a piecewise-constant signal with the given segment
// (length, level) pairs plus Gaussian noise.
func step(rng *rand.Rand, sigma float64, segs ...[2]float64) []float64 {
	var out []float64
	for _, s := range segs {
		n := int(s[0])
		for i := 0; i < n; i++ {
			v := s[1]
			if sigma > 0 {
				v += rng.NormFloat64() * sigma
			}
			out = append(out, v)
		}
	}
	return out
}

func containsNear(bps []int, want, tol int) bool {
	for _, b := range bps {
		if b >= want-tol && b <= want+tol {
			return true
		}
	}
	return false
}

func TestPELTFindsSingleBreak(t *testing.T) {
	var sc Scratch
	rng := rand.New(rand.NewSource(1))
	x := step(rng, 0.5, [2]float64{50, 0}, [2]float64{50, 10})
	pen := BICPenalty(len(x), 0.25) * 5
	if bps := sc.PELT(x, pen, 5); len(bps) == 0 || !containsNear(bps, 50, 3) {
		t.Errorf("breakpoints = %v, want ~50", bps)
	}
	// A noiseless step splits exactly at its boundary.
	clean := step(nil, 0, [2]float64{30, 0}, [2]float64{30, 100})
	if bps := sc.PELT(clean, 10, 3); len(bps) != 1 || bps[0] != 30 {
		t.Errorf("clean step: breakpoints = %v, want [30]", bps)
	}
	// The pipeline's penalty recipe (noise estimate, BIC, x minSize)
	// finds exactly the one level change of a two-level trace.
	rng = rand.New(rand.NewSource(7))
	x = step(rng, 0.2, [2]float64{60, 2}, [2]float64{60, 9})
	pen = BICPenalty(len(x), sc.EstimateNoise(x)) * 10
	if bps := sc.PELT(x, pen, 10); len(bps) != 1 || !containsNear(bps, 60, 3) {
		t.Errorf("two-level trace: breakpoints = %v, want exactly one ~60", bps)
	}
}

func TestPELTNoBreakOnConstant(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	x := step(rng, 0.5, [2]float64{100, 5})
	pen := BICPenalty(len(x), 0.25) * 5
	if bps := new(Scratch).PELT(x, pen, 5); len(bps) != 0 {
		t.Errorf("constant signal got breakpoints %v", bps)
	}
}

func TestPELTMultipleBreaks(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	x := step(rng, 0.3, [2]float64{40, 0}, [2]float64{40, 8}, [2]float64{40, 2})
	pen := BICPenalty(len(x), 0.09) * 5
	bps := new(Scratch).PELT(x, pen, 5)
	if !containsNear(bps, 40, 3) || !containsNear(bps, 80, 3) {
		t.Errorf("breakpoints = %v, want ~40 and ~80", bps)
	}
}

func TestPELTEmptyAndTiny(t *testing.T) {
	var sc Scratch
	if bps := sc.PELT(nil, 1, 1); bps != nil {
		t.Errorf("nil input = %v", bps)
	}
	if bps := sc.PELT([]float64{1}, 1, 1); len(bps) != 0 {
		t.Errorf("single sample = %v", bps)
	}
}

func TestEstimateNoise(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	// Pure noise sigma=2, with a huge level shift that the
	// difference-based estimator must be robust to.
	x := step(rng, 2, [2]float64{500, 0}, [2]float64{500, 1000})
	var sc Scratch
	sigma2 := sc.EstimateNoise(x)
	if sigma2 < 1 || sigma2 > 9 {
		t.Errorf("noise estimate = %v, want ~4", sigma2)
	}
	if sc.EstimateNoise([]float64{1, 2}) != 0 {
		t.Error("tiny input should estimate 0")
	}
}

func TestBICPenalty(t *testing.T) {
	if BICPenalty(1, 5) != 0 {
		t.Error("n<2 should be 0")
	}
	if BICPenalty(100, 0) != 0 {
		t.Error("zero variance should be 0")
	}
	if BICPenalty(100, 2) <= BICPenalty(10, 2) {
		t.Error("penalty should grow with n")
	}
}

func TestSegments(t *testing.T) {
	x := []float64{1, 1, 1, 2, 2, 2, 2, 4, 4, 4}
	var sc Scratch
	means := sc.SegmentMeans(x, []int{3, 7})
	if len(means) != 3 || means[0] != 1 || means[1] != 2 || means[2] != 4 {
		t.Errorf("means = %v, want [1 2 4]", means)
	}
	// Out-of-range and non-increasing breakpoints are skipped.
	means = sc.SegmentMeans(x, []int{0, 3, 3, 12})
	if len(means) != 2 || means[0] != 1 || means[1] != 20.0/7 {
		t.Errorf("sanitized means = %v, want [1 %v]", means, 20.0/7)
	}
}

func TestSegmentMeans(t *testing.T) {
	x := []float64{1, 1, 1, 5, 5, 5}
	means := new(Scratch).SegmentMeans(x, []int{3})
	if len(means) != 2 || means[0] != 1 || means[1] != 5 {
		t.Errorf("means = %v", means)
	}
}

// Property: PELT's breakpoints are sorted, within range, and respect
// minSize spacing from the boundaries.
func TestPELTWellFormedProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 50 + rng.Intn(100)
		x := make([]float64, n)
		level := 0.0
		for i := range x {
			if rng.Float64() < 0.05 {
				level = rng.Float64() * 20
			}
			x[i] = level + rng.NormFloat64()
		}
		minSize := 1 + rng.Intn(5)
		pen := rng.Float64() * 50
		bps := new(Scratch).PELT(x, pen, minSize)
		prev := 0
		for _, b := range bps {
			if b <= prev || b >= n {
				return false
			}
			if b-prev < minSize {
				return false
			}
			prev = b
		}
		return n-prev >= minSize || len(bps) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: a higher penalty never yields more breakpoints.
func TestPELTPenaltyMonotonicity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		x := step(rng, 1,
			[2]float64{30, 0}, [2]float64{30, float64(rng.Intn(20))}, [2]float64{30, 3})
		var sc Scratch
		lo := len(sc.PELT(x, 5, 3))
		hi := len(sc.PELT(x, 500, 3))
		return hi <= lo
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: total L2 cost of the PELT segmentation is no worse than
// the unsegmented cost (adding penalty-justified breaks only helps).
func TestPELTImprovesCost(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	x := step(rng, 0.5, [2]float64{50, 0}, [2]float64{50, 20})
	pen := 10.0
	bps := new(Scratch).PELT(x, pen, 2)
	segmented := segmentationCost(x, bps, pen)
	whole := segCost(x, 0, len(x))
	if segmented > whole+1e-9 {
		t.Errorf("segmented cost %v worse than whole %v", segmented, whole)
	}
}

func BenchmarkPELT100(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := step(rng, 1, [2]float64{50, 0}, [2]float64{50, 10})
	var sc Scratch
	for i := 0; i < b.N; i++ {
		sc.PELT(x, 50, 5)
	}
}
