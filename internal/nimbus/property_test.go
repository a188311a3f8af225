package nimbus

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

// Property: the estimator never emits negative, NaN, or infinite
// elasticity values, no matter how erratic the send/ack stream is.
func TestEstimatorRobustToArbitraryStreams(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e := NewEstimator(Config{Mu: 10e6, WindowSamples: 64, SlideInterval: 200 * time.Millisecond})
		at := time.Duration(0)
		for i := 0; i < 3000; i++ {
			at += time.Duration(rng.Intn(5_000_000)) // up to 5ms
			switch rng.Intn(3) {
			case 0:
				e.RecordSend(at, rng.Intn(3000))
			case 1:
				rtt := time.Duration(1+rng.Intn(200)) * time.Millisecond
				e.RecordAck(at, rng.Intn(3000), rtt, rtt, rtt/2)
			case 2:
				// Bursts of zero-byte events.
				e.RecordSend(at, 0)
			}
			if eta, ok := e.Eta(); ok {
				if eta < 0 || math.IsNaN(eta) || math.IsInf(eta, 0) {
					return false
				}
			}
			if z := e.CrossRate(); z < 0 || math.IsNaN(z) || math.IsInf(z, 0) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// Property: the elasticity series timestamps are strictly increasing
// and samples are emitted roughly every SlideInterval once warm.
func TestElasticitySeriesCadence(t *testing.T) {
	e := NewEstimator(Config{Mu: 10e6, WindowSamples: 128, SlideInterval: 500 * time.Millisecond})
	for at := time.Duration(0); at < 10*time.Second; at += time.Millisecond {
		e.RecordSend(at, 1000)
		srtt := 60 * time.Millisecond
		e.RecordAck(at, 1000, srtt, srtt, 40*time.Millisecond)
	}
	samples := e.Elasticity.Samples()
	if len(samples) < 10 {
		t.Fatalf("only %d elasticity windows emitted", len(samples))
	}
	for i := 1; i < len(samples); i++ {
		gap := samples[i].At - samples[i-1].At
		if gap < 400*time.Millisecond || gap > 700*time.Millisecond {
			t.Fatalf("slide gap %v at %d, want ~500ms", gap, i)
		}
	}
}

// Property: the pulse is bounded by +-PulseAmp for arbitrary times.
func TestPulseBoundedProperty(t *testing.T) {
	f := func(nanos int64, amp float64) bool {
		a := math.Abs(math.Mod(amp, 1))
		if a == 0 {
			a = 0.25
		}
		e := NewEstimator(Config{Mu: 1e6, PulseAmp: a})
		p := e.Pulse(time.Duration(nanos))
		return p <= a+1e-12 && p >= -a-1e-12 && !math.IsNaN(p)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// targetQDelay clamping.
func TestEffectiveTargetQDelay(t *testing.T) {
	cases := []struct {
		min  time.Duration
		want time.Duration
	}{
		{0, 15 * time.Millisecond},
		{5 * time.Millisecond, 5 * time.Millisecond},    // 2ms raw, clamped up
		{50 * time.Millisecond, 20 * time.Millisecond},  // 0.4x
		{300 * time.Millisecond, 50 * time.Millisecond}, // clamped down
	}
	for _, c := range cases {
		if got := targetQDelay(c.min); got != c.want {
			t.Errorf("targetQDelay(%v) = %v, want %v", c.min, got, c.want)
		}
	}
}
