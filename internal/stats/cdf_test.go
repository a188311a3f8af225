package stats

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestCDFEmpty(t *testing.T) {
	var c CDF
	if _, err := c.Quantile(0.5); err != ErrEmpty {
		t.Errorf("Quantile on empty = %v, want ErrEmpty", err)
	}
	if got := c.Points(); got != nil {
		t.Errorf("Points on empty = %v, want nil", got)
	}
	if s := c.String(); s != "CDF(empty)" {
		t.Errorf("String = %q", s)
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
	pts := c.points(3)
	if len(pts) != 3 {
		t.Fatalf("got %d points", len(pts))
	}
	if pts[0][0] != 0 || pts[2][0] != 10 {
		t.Errorf("endpoints = %v, %v", pts[0], pts[2])
	}
	if pts[1][1] != 0.5 {
		t.Errorf("middle fraction = %v, want 0.5", pts[1][1])
	}
	if got := c.Points(); len(got) != cdfPoints || got[cdfPoints-1] != [2]float64{10, 1} {
		t.Errorf("Points() = %v", got)
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

// Property: Points is a valid CDF — values and fractions monotone
// non-decreasing, ending at (max, 1).
func TestCDFMonotoneProperty(t *testing.T) {
	f := func(vals []float64, n uint8) bool {
		clean := make([]float64, 0, len(vals))
		for _, v := range vals {
			if v == v && v < 1e18 && v > -1e18 { // filter NaN/huge
				clean = append(clean, v)
			}
		}
		if len(clean) == 0 {
			return true
		}
		pts := NewCDF(clean).points(int(n%16) + 2)
		for i := 1; i < len(pts); i++ {
			if pts[i][0] < pts[i-1][0] || pts[i][1] < pts[i-1][1] {
				return false
			}
		}
		mx, _ := Max(clean)
		last := pts[len(pts)-1]
		return pts[0][1] >= 0 && last == [2]float64{mx, 1}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
