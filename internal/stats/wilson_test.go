package stats

import (
	"math"
	"testing"
)

func TestWilsonKnownValue(t *testing.T) {
	// 5/10 at 95%: the textbook Wilson interval is (0.2366, 0.7634).
	lo, hi := Wilson(5, 10)
	if math.Abs(lo-0.2366) > 5e-4 || math.Abs(hi-0.7634) > 5e-4 {
		t.Fatalf("Wilson(5,10) = (%.4f, %.4f), want ≈(0.2366, 0.7634)", lo, hi)
	}
	if math.Abs((lo+hi)/2-0.5) > 1e-12 {
		t.Fatalf("interval for p=0.5 is not symmetric about 0.5: (%.6f, %.6f)", lo, hi)
	}
}

func TestWilsonEdges(t *testing.T) {
	// Zero successes: lo pinned to 0, hi strictly inside (0, 1).
	lo, hi := Wilson(0, 20)
	if lo != 0 {
		t.Fatalf("Wilson(0,20) lo = %g, want 0", lo)
	}
	if hi <= 0 || hi >= 1 {
		t.Fatalf("Wilson(0,20) hi = %g, want in (0,1)", hi)
	}
	// All successes mirror that.
	lo, hi = Wilson(20, 20)
	if hi != 1 {
		t.Fatalf("Wilson(20,20) hi = %g, want 1", hi)
	}
	if lo <= 0 || lo >= 1 {
		t.Fatalf("Wilson(20,20) lo = %g, want in (0,1)", lo)
	}
	// No data: vacuous interval.
	lo, hi = Wilson(0, 0)
	if lo != 0 || hi != 1 {
		t.Fatalf("Wilson(0,0) = (%g, %g), want (0, 1)", lo, hi)
	}
}

func TestWilsonShrinksWithN(t *testing.T) {
	prev := 1.0
	for _, n := range []int{10, 100, 1000, 10000} {
		lo, hi := Wilson(n/2, n)
		if w := hi - lo; w >= prev {
			t.Fatalf("interval width %.5f at n=%d did not shrink (prev %.5f)", w, n, prev)
		} else {
			prev = w
		}
	}
}

func TestWilsonBounds(t *testing.T) {
	for n := 1; n <= 30; n++ {
		for k := 0; k <= n; k++ {
			lo, hi := Wilson(k, n)
			p := float64(k) / float64(n)
			if lo < 0 || hi > 1 || lo > hi {
				t.Fatalf("Wilson(%d,%d) = (%g, %g) escapes [0,1]", k, n, lo, hi)
			}
			if p < lo-1e-12 || p > hi+1e-12 {
				t.Fatalf("Wilson(%d,%d) = (%g, %g) excludes the point estimate %g", k, n, lo, hi, p)
			}
		}
	}
}
