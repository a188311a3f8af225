package stats

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestCDFEmpty(t *testing.T) {
	var c CDF
	if c.At(5) != 0 {
		t.Error("empty CDF should evaluate to 0")
	}
	if _, err := c.Quantile(0.5); err != ErrEmpty {
		t.Errorf("Quantile on empty = %v, want ErrEmpty", err)
	}
	if got := c.Points(5); got != nil {
		t.Errorf("Points on empty = %v, want nil", got)
	}
	if s := c.String(); s != "CDF(empty)" {
		t.Errorf("String = %q", s)
	}
}

func TestCDFAt(t *testing.T) {
	c := NewCDF([]float64{1, 2, 2, 3})
	cases := []struct{ x, want float64 }{
		{0, 0}, {1, 0.25}, {1.5, 0.25}, {2, 0.75}, {3, 1}, {10, 1},
	}
	for _, cse := range cases {
		if got := c.At(cse.x); got != cse.want {
			t.Errorf("At(%v) = %v, want %v", cse.x, got, cse.want)
		}
	}
}

func TestCDFAddAndQuantile(t *testing.T) {
	var c CDF
	for _, v := range []float64{5, 1, 3} {
		c.Add(v)
	}
	if c.Len() != 3 {
		t.Fatalf("Len = %d", c.Len())
	}
	med, err := c.Quantile(0.5)
	if err != nil || med != 3 {
		t.Errorf("median = %v (%v), want 3", med, err)
	}
}

func TestCDFPoints(t *testing.T) {
	c := NewCDF([]float64{0, 10})
	pts := c.Points(3)
	if len(pts) != 3 {
		t.Fatalf("got %d points", len(pts))
	}
	if pts[0][0] != 0 || pts[2][0] != 10 {
		t.Errorf("endpoints = %v, %v", pts[0], pts[2])
	}
	if pts[1][1] != 0.5 {
		t.Errorf("middle fraction = %v, want 0.5", pts[1][1])
	}
	if got := c.Points(1); len(got) != 1 || got[0][1] != 1 {
		t.Errorf("Points(1) = %v", got)
	}
}

func TestCDFString(t *testing.T) {
	c := NewCDF([]float64{1, 2, 3})
	s := c.String()
	for _, want := range []string{"min=1", "p50=2", "max=3"} {
		if !strings.Contains(s, want) {
			t.Errorf("String %q missing %q", s, want)
		}
	}
}

// Property: At is a valid CDF — monotone non-decreasing, 0 at -inf
// side, 1 at max.
func TestCDFMonotoneProperty(t *testing.T) {
	f := func(vals []float64, probe1, probe2 float64) bool {
		clean := make([]float64, 0, len(vals))
		for _, v := range vals {
			if v == v && v < 1e18 && v > -1e18 { // filter NaN/huge
				clean = append(clean, v)
			}
		}
		if len(clean) == 0 {
			return true
		}
		c := NewCDF(clean)
		a, b := probe1, probe2
		if a > b {
			a, b = b, a
		}
		if a != a || b != b {
			return true
		}
		fa, fb := c.At(a), c.At(b)
		mx, _ := Max(clean)
		return fa <= fb && fa >= 0 && fb <= 1 && c.At(mx) == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
