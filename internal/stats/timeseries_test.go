package stats

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func TestSeriesAppendAndSpan(t *testing.T) {
	var s Series
	if s.Len() != 0 || len(s.Samples()) != 0 {
		t.Error("zero value should be empty")
	}
	s.Append(time.Second, 1)
	s.Append(3*time.Second, 2)
	if got := s.Samples(); got[0].At != time.Second || got[1].At != 3*time.Second {
		t.Errorf("span = %v..%v", got[0].At, got[1].At)
	}
	if s.Len() != 2 {
		t.Errorf("Len = %d", s.Len())
	}
}

func TestSeriesOutOfOrderClamps(t *testing.T) {
	var s Series
	s.Append(2*time.Second, 1)
	s.Append(time.Second, 2) // runs backwards: clamped, not dropped
	if s.Len() != 2 {
		t.Fatalf("Len = %d, want both samples kept", s.Len())
	}
	got := s.Samples()[1]
	if got.At != 2*time.Second || got.Value != 2 {
		t.Errorf("clamped sample = %+v, want At=2s Value=2", got)
	}
	if s.Clamped != 1 {
		t.Errorf("Clamped = %d, want 1", s.Clamped)
	}
	// The series stays sorted, so binary-search consumers still work.
	if vs := s.Window(0, 3*time.Second); len(vs) != 2 {
		t.Errorf("Window over clamped series = %v", vs)
	}
	s.Append(3*time.Second, 3) // in-order appends are unaffected
	if s.Clamped != 1 {
		t.Errorf("in-order append bumped Clamped to %d", s.Clamped)
	}
}

func TestSeriesWindow(t *testing.T) {
	var s Series
	for i := 0; i < 10; i++ {
		s.Append(time.Duration(i)*time.Second, float64(i))
	}
	got := s.Window(3*time.Second, 6*time.Second)
	if len(got) != 3 || got[0] != 3 || got[2] != 5 {
		t.Errorf("Window = %v", got)
	}
	if got := s.Window(20*time.Second, 30*time.Second); len(got) != 0 {
		t.Errorf("out-of-range window = %v", got)
	}
}

func TestSeriesRate(t *testing.T) {
	var s Series
	// Cumulative bytes: 1000 bytes/s.
	for i := 0; i <= 10; i++ {
		s.Append(time.Duration(i)*time.Second, float64(i*1000))
	}
	got := s.Rate(2*time.Second, 8*time.Second)
	if !almostEq(got, 1000, 1e-9) {
		t.Errorf("Rate = %v, want 1000", got)
	}
	if got := s.Rate(5*time.Second, 5*time.Second); got != 0 {
		t.Errorf("zero-width rate = %v", got)
	}
	var empty Series
	if got := empty.Rate(0, time.Second); got != 0 {
		t.Errorf("empty rate = %v", got)
	}
}

func TestEWMA(t *testing.T) {
	e := NewEWMA(0.5)
	if e.Initialized() {
		t.Error("fresh EWMA should be uninitialized")
	}
	if got := e.Update(10); got != 10 {
		t.Errorf("first update = %v, want 10", got)
	}
	if got := e.Update(20); !almostEq(got, 15, 1e-12) {
		t.Errorf("second update = %v, want 15", got)
	}
	if e.Value() != e.Update(e.Value()) {
		t.Error("updating with current value should be a fixed point")
	}
	// Clamping.
	if e := NewEWMA(5); e.Update(1) != 1 || e.Update(3) != 3 {
		t.Error("alpha > 1 should clamp to 1 (no smoothing)")
	}
}

func TestMaxFilter(t *testing.T) {
	m := NewMaxFilter(10 * time.Second)
	if got := m.Value(0); got != 0 {
		t.Errorf("empty max = %v", got)
	}
	m.Update(0, 5)
	m.Update(time.Second, 3)
	if got := m.Value(2 * time.Second); got != 5 {
		t.Errorf("max = %v, want 5", got)
	}
	// After the 5 expires, the 3 rules.
	if got := m.Value(11 * time.Second); got != 3 {
		t.Errorf("max after expiry = %v, want 3", got)
	}
	// New larger value dominates immediately.
	m.Update(12*time.Second, 9)
	if got := m.Value(12 * time.Second); got != 9 {
		t.Errorf("max = %v, want 9", got)
	}
}

// Property: MaxFilter matches a brute-force windowed maximum.
func TestMaxFilterMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		window := 5 * time.Second
		m := NewMaxFilter(window)
		type obs struct {
			at time.Duration
			v  float64
		}
		var all []obs
		at := time.Duration(0)
		for i := 0; i < 100; i++ {
			at += time.Duration(rng.Intn(1000)) * time.Millisecond
			v := rng.Float64() * 100
			all = append(all, obs{at, v})
			got := m.Update(at, v)
			// Brute force over the window [at-window, at].
			want := 0.0
			for _, o := range all {
				if o.at >= at-window && o.v > want {
					want = o.v
				}
			}
			if !almostEq(got, want, 1e-9) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}
