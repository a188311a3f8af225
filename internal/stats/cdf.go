package stats

import (
	"fmt"
	"sort"
	"strings"
)

// CDF is an empirical cumulative distribution function over float64
// samples. The zero value is an empty CDF ready for use.
type CDF struct {
	samples []float64
	sorted  bool
}

// NewCDF returns a CDF over a copy of the provided samples.
func NewCDF(samples []float64) *CDF {
	c := &CDF{samples: append([]float64(nil), samples...)}
	c.sort()
	return c
}

// Add appends a sample.
func (c *CDF) Add(x float64) {
	c.samples = append(c.samples, x)
	c.sorted = false
}

// Len returns the number of samples.
func (c *CDF) Len() int { return len(c.samples) }

func (c *CDF) sort() {
	if !c.sorted {
		sort.Float64s(c.samples)
		c.sorted = true
	}
}

// Quantile returns the q-quantile of the sample set. It returns
// ErrEmpty when no samples have been added.
func (c *CDF) Quantile(q float64) (float64, error) {
	if len(c.samples) == 0 {
		return 0, ErrEmpty
	}
	c.sort()
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	return quantileSorted(c.samples, q), nil
}

// cdfPoints is the number of points Points returns.
const cdfPoints = 50

// Points returns cdfPoints evenly spaced (value, cumulative fraction)
// points suitable for plotting.
func (c *CDF) Points() [][2]float64 { return c.points(cdfPoints) }

// points returns n >= 2 evenly spaced points; the tests pick n.
func (c *CDF) points(n int) [][2]float64 {
	if len(c.samples) == 0 {
		return nil
	}
	c.sort()
	pts := make([][2]float64, 0, n)
	for i := 0; i < n; i++ {
		q := float64(i) / float64(n-1)
		v := quantileSorted(c.samples, q)
		pts = append(pts, [2]float64{v, q})
	}
	return pts
}

// String renders a compact summary (min/p25/p50/p75/p90/p99/max).
func (c *CDF) String() string {
	if len(c.samples) == 0 {
		return "CDF(empty)"
	}
	c.sort()
	var b strings.Builder
	b.WriteString("CDF(")
	qs := []struct {
		name string
		q    float64
	}{{"min", 0}, {"p25", 0.25}, {"p50", 0.5}, {"p75", 0.75}, {"p90", 0.9}, {"p99", 0.99}, {"max", 1}}
	for i, s := range qs {
		if i > 0 {
			b.WriteString(" ")
		}
		fmt.Fprintf(&b, "%s=%.4g", s.name, quantileSorted(c.samples, s.q))
	}
	b.WriteString(")")
	return b.String()
}
