package nimbus

import (
	"math"
	"testing"
	"time"
)

// allFinite fails the test if any emitted estimator output is NaN/Inf.
func allFinite(t *testing.T, e *Estimator) {
	t.Helper()
	for _, s := range e.Elasticity.Samples() {
		if !finite(s.Value) {
			t.Fatalf("non-finite eta %v at %v", s.Value, s.At)
		}
	}
	if !finite(e.CrossRate()) {
		t.Fatalf("non-finite cross rate %v", e.CrossRate())
	}
	if eta, ok := e.Eta(); ok && !finite(eta) {
		t.Fatalf("non-finite Eta() %v", eta)
	}
}

// TestEstimatorSurvivesZeroRateIntervals: long stretches of silence
// (an outage: no sends, no acks) must not divide-by-zero their way
// into the FFT window.
func TestEstimatorSurvivesZeroRateIntervals(t *testing.T) {
	const mu = 48e6
	e := NewEstimator(Config{Mu: mu, WindowSamples: 128})
	rate := func(at time.Duration) float64 {
		if at > 2*time.Second && at < 4*time.Second {
			return 0 // total outage
		}
		return 30e6 * (1 + 0.25*math.Sin(2*math.Pi*5*at.Seconds()))
	}
	feed(e, 8*time.Second, mu, rate, rate)
	allFinite(t, e)
}

// TestEstimatorRejectsGarbageInputs: negative byte counts and
// non-positive RTTs are dropped at the door, and a huge clock jump is
// absorbed without spinning or corrupting the outputs.
func TestEstimatorRejectsGarbageInputs(t *testing.T) {
	const mu = 48e6
	e := NewEstimator(Config{Mu: mu, WindowSamples: 128})
	e.RecordSend(0, -5000)
	e.RecordAck(0, -5000, -time.Second, -time.Second, -time.Second)
	feed(e, 3*time.Second, mu,
		func(time.Duration) float64 { return 30e6 },
		func(time.Duration) float64 { return 30e6 },
	)
	// Poison mid-stream too.
	e.RecordSend(3*time.Second, -1)
	e.RecordAck(3*time.Second, -1, 0, 0, 0)
	// Clock leaps an hour forward (suspend/resume): bounded catch-up.
	e.RecordSend(time.Hour, 1200)
	e.RecordAck(time.Hour+time.Millisecond, 1200, 50*time.Millisecond, 50*time.Millisecond, 40*time.Millisecond)
	allFinite(t, e)
	if e.MinRTT() < 0 || e.SRTT() < 0 {
		t.Errorf("negative RTTs leaked in: srtt=%v minRTT=%v", e.SRTT(), e.MinRTT())
	}
}

// TestEstimatorEmptyWindowEmitsNothing: an estimator that never sees
// traffic must stay silent (no windows, no verdict) instead of
// emitting zeros or NaNs.
func TestEstimatorEmptyWindowEmitsNothing(t *testing.T) {
	e := NewEstimator(Config{Mu: 48e6})
	if _, ok := e.Eta(); ok {
		t.Error("verdict claimed before any traffic")
	}
	if len(e.Elasticity.Samples()) != 0 {
		t.Errorf("%d eta samples from an idle estimator", len(e.Elasticity.Samples()))
	}
	if z := e.CrossRate(); z != 0 {
		t.Errorf("idle cross rate = %v, want 0", z)
	}
}

// TestEstimatorAutoMuZeroDelivery: with Mu unset (auto-tracking) and a
// delivery rate of zero, the mu estimate is zero — the z update must
// hold rather than divide.
func TestEstimatorAutoMuZeroDelivery(t *testing.T) {
	e := NewEstimator(Config{WindowSamples: 128}) // Mu = 0: auto
	for at := time.Duration(0); at < 3*time.Second; at += time.Millisecond {
		e.RecordSend(at, 1500) // sends but no acks at all
	}
	allFinite(t, e)
}
