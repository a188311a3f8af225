package nimbus

import (
	"math"
	"testing"
	"time"
)

// TestVerdict pins the shared verdict's edges. Windows sit at 1 s, 2 s,
// ... in the order given.
func TestVerdict(t *testing.T) {
	const th = EtaThreshold
	cases := []struct {
		name     string
		etas     []float64
		from, to time.Duration
		want     Verdict
	}{
		{"zero windows: undecided, every field zero", nil, 0, 10 * time.Second, Verdict{}},
		{"no window inside the interval", []float64{5, 5}, 3 * time.Second, 10 * time.Second, Verdict{}},
		{"inverted interval", []float64{5, 5}, 2 * time.Second, time.Second, Verdict{}},
		{"exact tie is not elastic", []float64{4, 4, 0, 0}, 0, 10 * time.Second,
			Verdict{Windows: 4, Mean: 2, Max: 4}},
		{"a window equal to the threshold counts", []float64{th, th, 0}, 0, 10 * time.Second,
			Verdict{Windows: 3, Mean: 2 * th / 3, Max: th, Elastic: true}},
		{"from is inclusive, to is exclusive", []float64{0.25, 1, 0.25, 7}, time.Second, 4 * time.Second,
			Verdict{Windows: 3, Mean: 0.5, Max: 1}},
		{"open end", []float64{0, 9, 9}, 2 * time.Second, math.MaxInt64,
			Verdict{Windows: 2, Mean: 9, Max: 9, Elastic: true}},
	}
	for _, c := range cases {
		est := NewEstimator(Config{Mu: 1e6})
		for i, eta := range c.etas {
			est.Elasticity.Append(time.Duration(i+1)*time.Second, eta)
		}
		if got := est.Verdict(c.from, c.to); got != c.want {
			t.Errorf("%s: Verdict(%v, %v) = %+v, want %+v", c.name, c.from, c.to, got, c.want)
		}
	}
}
