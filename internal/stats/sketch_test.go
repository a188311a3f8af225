package stats

import (
	"math"
	"math/rand"
	"testing"
)

func TestSketchQuantilesNearExact(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	s := NewSketch(0, 1, 1024)
	c := NewCDF(nil)
	for i := 0; i < 50000; i++ {
		x := rng.Float64()
		s.Add(x)
		c.Add(x)
	}
	binw := 1.0 / 1024
	for _, q := range []float64{0, 0.01, 0.25, 0.5, 0.75, 0.9, 0.99, 1} {
		want, err := c.Quantile(q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := s.Quantile(q)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-want) > binw+1e-9 {
			t.Errorf("q=%g: sketch %g vs exact %g (tolerance %g)", q, got, want, binw)
		}
	}
}

func TestSketchExactExtremes(t *testing.T) {
	s := NewSketch(0, 1, 16)
	for _, x := range []float64{0.137, 0.42, 0.933} {
		s.Add(x)
	}
	if v, _ := s.Quantile(0); v != 0.137 {
		t.Errorf("min = %g", v)
	}
	if v, _ := s.Quantile(1); v != 0.933 {
		t.Errorf("max = %g", v)
	}
}

func TestSketchOrderAndPartitionIndependence(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	xs := make([]float64, 10000)
	for i := range xs {
		xs[i] = rng.NormFloat64()*0.1 + 0.5
	}

	bulk := NewSketch(0, 1, 256)
	for _, x := range xs {
		bulk.Add(x)
	}

	// Reversed insertion order, partitioned across 7 sketches, merged
	// in a scrambled order: byte-for-byte the same state.
	parts := make([]*Sketch, 7)
	for i := range parts {
		parts[i] = NewSketch(0, 1, 256)
	}
	for i := len(xs) - 1; i >= 0; i-- {
		parts[i%7].Add(xs[i])
	}
	merged := NewSketch(0, 1, 256)
	for _, i := range []int{3, 0, 6, 1, 5, 2, 4} {
		if err := merged.Merge(parts[i]); err != nil {
			t.Fatal(err)
		}
	}

	if merged.N() != bulk.N() || merged.min != bulk.min || merged.max != bulk.max {
		t.Fatalf("merged n/min/max = %d/%g/%g, want %d/%g/%g",
			merged.N(), merged.min, merged.max, bulk.N(), bulk.min, bulk.max)
	}
	for i := range bulk.counts {
		if merged.counts[i] != bulk.counts[i] {
			t.Fatalf("bin %d: %d vs %d", i, merged.counts[i], bulk.counts[i])
		}
	}
	if merged.String() != bulk.String() {
		t.Errorf("summaries differ: %s vs %s", merged.String(), bulk.String())
	}
}

func TestSketchClampsOutOfRange(t *testing.T) {
	s := NewSketch(0, 1, 8)
	s.Add(-5)
	s.Add(7)
	if s.counts[0] != 1 || s.counts[7] != 1 {
		t.Errorf("edge bins = %v", s.counts)
	}
	if v, _ := s.Quantile(0); v != -5 {
		t.Errorf("min should stay exact: %g", v)
	}
	if v, _ := s.Quantile(1); v != 7 {
		t.Errorf("max should stay exact: %g", v)
	}
}

func TestSketchMergeGeometryMismatch(t *testing.T) {
	a := NewSketch(0, 1, 8)
	b := NewSketch(0, 2, 8)
	if err := a.Merge(b); err == nil {
		t.Error("expected geometry error")
	}
	c := NewSketch(0, 1, 16)
	if err := a.Merge(c); err == nil {
		t.Error("expected bin-count error")
	}
}

func TestSketchEmptyAndNaN(t *testing.T) {
	s := NewSketch(0, 1, 8)
	if _, err := s.Quantile(0.5); err != ErrEmpty {
		t.Errorf("empty quantile err = %v", err)
	}
	s.Add(math.NaN())
	if s.N() != 0 {
		t.Error("NaN should be dropped")
	}
	s.Add(0.5)
	if s.N() != 1 {
		t.Errorf("n = %d", s.N())
	}
}

func TestSketchPanicsOnBadGeometry(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewSketch(1, 1, 8)
}
