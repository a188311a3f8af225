package stats

import (
	"encoding/json"
	"fmt"
	"math"
	"strings"
)

// Sketch is a mergeable, constant-memory streaming quantile sketch
// over a bounded value range: a fixed grid of equal-width bins plus
// exact extremes. Because its state is pure counts, the result of any
// sequence of Add and Merge calls depends only on the multiset of
// samples — never on arrival order or on how the stream was
// partitioned across workers — which is what makes a parallel
// aggregation byte-identical to a sequential one.
//
// Quantile error is bounded by the bin width (hi-lo)/bins, except at
// q=0 and q=1 which return the exact extremes. Samples outside
// [lo, hi] are clamped into the edge bins (the extremes remain exact).
type Sketch struct {
	lo, hi float64
	counts []uint64
	n      uint64
	min    float64
	max    float64
}

// NewSketch returns an empty sketch over [lo, hi] with the given
// number of bins. It panics if hi <= lo or bins < 1 (a sketch's
// geometry is a compile-time-style decision, not data).
func NewSketch(lo, hi float64, bins int) *Sketch {
	if !(hi > lo) || bins < 1 {
		panic(fmt.Sprintf("stats: invalid sketch geometry [%g, %g] x %d", lo, hi, bins))
	}
	return &Sketch{lo: lo, hi: hi, counts: make([]uint64, bins)}
}

// Add folds one sample into the sketch. NaN samples are dropped.
func (s *Sketch) Add(x float64) {
	if math.IsNaN(x) {
		return
	}
	if s.n == 0 || x < s.min {
		s.min = x
	}
	if s.n == 0 || x > s.max {
		s.max = x
	}
	s.counts[s.bin(x)]++
	s.n++
}

func (s *Sketch) bin(x float64) int {
	b := int(float64(len(s.counts)) * (x - s.lo) / (s.hi - s.lo))
	if b < 0 {
		return 0
	}
	if b >= len(s.counts) {
		return len(s.counts) - 1
	}
	return b
}

// Merge folds o into s. The two sketches must share a geometry.
func (s *Sketch) Merge(o *Sketch) error {
	if o.lo != s.lo || o.hi != s.hi || len(o.counts) != len(s.counts) {
		return fmt.Errorf("stats: merging sketches with different geometries ([%g,%g]x%d vs [%g,%g]x%d)",
			s.lo, s.hi, len(s.counts), o.lo, o.hi, len(o.counts))
	}
	if o.n == 0 {
		return nil
	}
	if s.n == 0 || o.min < s.min {
		s.min = o.min
	}
	if s.n == 0 || o.max > s.max {
		s.max = o.max
	}
	for i, c := range o.counts {
		s.counts[i] += c
	}
	s.n += o.n
	return nil
}

// Quantile returns the q-quantile estimate: the left edge of the bin
// containing the q-th ranked sample, linearly interpolated through the
// bin by rank. q=0 and q=1 return the exact min and max. It returns
// ErrEmpty when no samples have been added.
func (s *Sketch) Quantile(q float64) (float64, error) {
	if s.n == 0 {
		return 0, ErrEmpty
	}
	if q <= 0 {
		return s.min, nil
	}
	if q >= 1 {
		return s.max, nil
	}
	// Target rank in [1, n]; find the bin holding it.
	rank := q * float64(s.n)
	var cum float64
	width := (s.hi - s.lo) / float64(len(s.counts))
	for i, c := range s.counts {
		if c == 0 {
			continue
		}
		fc := float64(c)
		if cum+fc >= rank {
			frac := (rank - cum) / fc
			v := s.lo + (float64(i)+frac)*width
			// Keep estimates inside the observed range so a
			// one-bin sketch still reports sane quantiles.
			if v < s.min {
				v = s.min
			}
			if v > s.max {
				v = s.max
			}
			return v, nil
		}
		cum += fc
	}
	return s.max, nil
}

// sketchJSON is the wire form of a Sketch. Counts are stored sparsely
// as ascending [bin, count] pairs, so a mostly-empty sketch stays
// small and the encoding is canonical: two sketches with the same
// state always marshal to identical bytes, which is what lets census
// partials embed sketches and still byte-diff across shardings.
type sketchJSON struct {
	Lo     float64     `json:"lo"`
	Hi     float64     `json:"hi"`
	Bins   int         `json:"bins"`
	N      uint64      `json:"n"`
	Min    float64     `json:"min"`
	Max    float64     `json:"max"`
	Counts [][2]uint64 `json:"counts,omitempty"`
}

// MarshalJSON encodes the sketch's full state deterministically.
func (s *Sketch) MarshalJSON() ([]byte, error) {
	w := sketchJSON{Lo: s.lo, Hi: s.hi, Bins: len(s.counts), N: s.n}
	if s.n > 0 {
		w.Min, w.Max = s.min, s.max
	}
	for i, c := range s.counts {
		if c != 0 {
			w.Counts = append(w.Counts, [2]uint64{uint64(i), c})
		}
	}
	return json.Marshal(w)
}

// UnmarshalJSON restores a sketch, validating geometry and count
// consistency so a corrupt partial fails loudly instead of merging
// garbage.
func (s *Sketch) UnmarshalJSON(b []byte) error {
	var w sketchJSON
	if err := json.Unmarshal(b, &w); err != nil {
		return err
	}
	if !(w.Hi > w.Lo) || w.Bins < 1 {
		return fmt.Errorf("stats: decoded sketch has invalid geometry [%g, %g] x %d", w.Lo, w.Hi, w.Bins)
	}
	counts := make([]uint64, w.Bins)
	var sum uint64
	prev := -1
	for _, pair := range w.Counts {
		bin := int(pair[0])
		if bin <= prev || bin >= w.Bins {
			return fmt.Errorf("stats: decoded sketch has bad bin index %d (bins %d)", bin, w.Bins)
		}
		prev = bin
		counts[bin] = pair[1]
		sum += pair[1]
	}
	if sum != w.N {
		return fmt.Errorf("stats: decoded sketch counts sum to %d, header says %d", sum, w.N)
	}
	if w.N > 0 && (math.IsNaN(w.Min) || math.IsNaN(w.Max) || w.Min > w.Max) {
		return fmt.Errorf("stats: decoded sketch has inconsistent extremes [%g, %g]", w.Min, w.Max)
	}
	s.lo, s.hi, s.counts, s.n = w.Lo, w.Hi, counts, w.N
	s.min, s.max = 0, 0
	if w.N > 0 {
		s.min, s.max = w.Min, w.Max
	}
	return nil
}

// String renders a compact summary in the CDF summary's format, so
// reports read the same whichever backing the pipeline used.
func (s *Sketch) String() string {
	if s.n == 0 {
		return "CDF~(empty)"
	}
	var b strings.Builder
	b.WriteString("CDF~(")
	qs := []struct {
		name string
		q    float64
	}{{"min", 0}, {"p25", 0.25}, {"p50", 0.5}, {"p75", 0.75}, {"p90", 0.9}, {"p99", 0.99}, {"max", 1}}
	for i, e := range qs {
		if i > 0 {
			b.WriteString(" ")
		}
		v, _ := s.Quantile(e.q)
		fmt.Fprintf(&b, "%s=%.4g", e.name, v)
	}
	b.WriteString(")")
	return b.String()
}
