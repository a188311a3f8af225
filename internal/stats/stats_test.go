package stats

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMean(t *testing.T) {
	cases := []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{}, 0},
		{[]float64{5}, 5},
		{[]float64{1, 2, 3, 4}, 2.5},
		{[]float64{-1, 1}, 0},
	}
	for _, c := range cases {
		if got := Mean(c.in); !almostEq(got, c.want, 1e-12) {
			t.Errorf("Mean(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestMinMax(t *testing.T) {
	if _, err := Max(nil); err != ErrEmpty {
		t.Errorf("Max(nil) err = %v, want ErrEmpty", err)
	}
	xs := []float64{3, -2, 8, 0}
	if mx, _ := Max(xs); mx != 8 {
		t.Errorf("Max = %v, want 8", mx)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	for _, c := range []struct{ q, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5},
	} {
		got, err := Quantile(xs, c.q)
		if err != nil {
			t.Fatal(err)
		}
		if !almostEq(got, c.want, 1e-12) {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	// Interpolation between order statistics.
	got, _ := Quantile([]float64{10, 20}, 0.5)
	if !almostEq(got, 15, 1e-12) {
		t.Errorf("Quantile(0.5) of {10,20} = %v, want 15", got)
	}
	// Clamping.
	got, _ = Quantile(xs, -1)
	if got != 1 {
		t.Errorf("Quantile(-1) = %v, want 1", got)
	}
	got, _ = Quantile(xs, 2)
	if got != 5 {
		t.Errorf("Quantile(2) = %v, want 5", got)
	}
	if _, err := Quantile(nil, 0.5); err != ErrEmpty {
		t.Errorf("Quantile(nil) err = %v, want ErrEmpty", err)
	}
}

func TestQuantileDoesNotMutateInput(t *testing.T) {
	xs := []float64{3, 1, 2}
	Quantile(xs, 0.5)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("input mutated: %v", xs)
	}
}

// Property: quantile is monotone in q and bounded by min/max.
func TestQuantileMonotoneProperty(t *testing.T) {
	f := func(raw []float64, q1, q2 float64) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, math.Mod(v, 1e9))
			}
		}
		if len(xs) == 0 {
			return true
		}
		a := math.Abs(math.Mod(q1, 1))
		b := math.Abs(math.Mod(q2, 1))
		if a > b {
			a, b = b, a
		}
		va, _ := Quantile(xs, a)
		vb, _ := Quantile(xs, b)
		mn := slices.Min(xs)
		mx, _ := Max(xs)
		return va <= vb+1e-9 && va >= mn-1e-9 && vb <= mx+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestJainIndex(t *testing.T) {
	if got := JainIndex(nil); got != 0 {
		t.Errorf("JainIndex(nil) = %v", got)
	}
	if got := JainIndex([]float64{0, 0}); got != 0 {
		t.Errorf("JainIndex(zeros) = %v", got)
	}
	if got := JainIndex([]float64{5, 5, 5}); !almostEq(got, 1, 1e-12) {
		t.Errorf("JainIndex(equal) = %v, want 1", got)
	}
	if got := JainIndex([]float64{1, 0, 0, 0}); !almostEq(got, 0.25, 1e-12) {
		t.Errorf("JainIndex(one-winner) = %v, want 0.25", got)
	}
}

// Property: Jain's index lies in [1/n, 1] for non-negative inputs with
// at least one positive value, and is scale invariant.
func TestJainIndexProperty(t *testing.T) {
	f := func(raw []float64, scale float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			xs = append(xs, math.Abs(math.Mod(v, 1e6)))
		}
		pos := false
		for _, v := range xs {
			if v > 0 {
				pos = true
			}
		}
		if !pos {
			return true
		}
		j := JainIndex(xs)
		n := float64(len(xs))
		if j < 1/n-1e-9 || j > 1+1e-9 {
			return false
		}
		s := 1 + math.Abs(math.Mod(scale, 100))
		scaled := make([]float64, len(xs))
		for i, v := range xs {
			scaled[i] = v * s
		}
		return almostEq(JainIndex(scaled), j, 1e-6)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestHarm(t *testing.T) {
	if got := Harm(0, 10); got != 0 {
		t.Errorf("Harm(0,·) = %v, want 0", got)
	}
	if got := Harm(10, 10); got != 0 {
		t.Errorf("no degradation harm = %v, want 0", got)
	}
	if got := Harm(10, 5); !almostEq(got, 0.5, 1e-12) {
		t.Errorf("half harm = %v, want 0.5", got)
	}
	if got := Harm(10, 0); !almostEq(got, 1, 1e-12) {
		t.Errorf("starved harm = %v, want 1", got)
	}
	if got := Harm(10, 20); got != 0 {
		t.Errorf("improved harm = %v, want 0 (clamped)", got)
	}
}

func TestMedian(t *testing.T) {
	got, err := Quantile([]float64{9, 1, 5}, 0.5)
	if err != nil || got != 5 {
		t.Errorf("median = %v (%v), want 5", got, err)
	}
}

// Quantile agrees with a brute-force sorted lookup at exact order
// statistic positions.
func TestQuantileAgainstSorted(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	xs := make([]float64, 101)
	for i := range xs {
		xs[i] = rng.Float64() * 100
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	for i := 0; i <= 100; i++ {
		q := float64(i) / 100
		got, _ := Quantile(xs, q)
		if !almostEq(got, sorted[i], 1e-9) {
			t.Fatalf("q=%v: got %v, want %v", q, got, sorted[i])
		}
	}
}
