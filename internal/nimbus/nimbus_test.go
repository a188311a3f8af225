package nimbus

import (
	"math"
	"testing"
	"time"
)

func TestConfigDefaults(t *testing.T) {
	cfg := Config{}.Norm()
	if cfg.PulseFreq != 5 || cfg.PulseAmp != 0.25 {
		t.Errorf("pulse defaults = %v/%v", cfg.PulseFreq, cfg.PulseAmp)
	}
	if cfg.WindowSamples != 512 {
		t.Errorf("window default = %v", cfg.WindowSamples)
	}
	// Non-power-of-two windows round up.
	cfg = Config{WindowSamples: 300}.Norm()
	if cfg.WindowSamples != 512 {
		t.Errorf("rounded window = %d", cfg.WindowSamples)
	}
}

// feedRTT is the synthetic feed's round-trip time: acknowledgment
// rates lag send rates by one RTT, as on a real path.
const feedRTT = 50 * time.Millisecond

// feed drives the estimator with synthetic send/ack streams whose ack
// rate is rout(t) evaluated one RTT in the past (the physical lag the
// estimator's rin alignment compensates for).
func feed(e *Estimator, dur time.Duration, mu float64, rin, rout func(t time.Duration) float64) {
	const step = time.Millisecond
	for at := time.Duration(0); at < dur; at += step {
		sb := int(rin(at) / 8 * step.Seconds())
		lag := at - feedRTT
		if lag < 0 {
			lag = 0
		}
		ab := int(rout(lag) / 8 * step.Seconds())
		e.RecordSend(at, sb)
		// A saturated bottleneck holds a standing queue: report an
		// SRTT above the propagation floor so the estimator's
		// saturation gate sees a busy link.
		srtt := feedRTT + 20*time.Millisecond
		e.RecordAck(at, ab, srtt, srtt, feedRTT)
	}
}

func TestEstimatorCrossRateCBR(t *testing.T) {
	// Saturated link: our flow sends 30 of 48 Mbit/s, cross CBR uses
	// 18. rout = mu * rin/(rin + z) = 48 * 30/48 = 30... for z
	// estimation: rout = 30 => z = mu*rin/rout - rin = 48*30/30-30 =
	// 18.
	const mu = 48e6
	e := NewEstimator(Config{Mu: mu})
	feed(e, 10*time.Second, mu,
		func(time.Duration) float64 { return 30e6 },
		func(time.Duration) float64 { return 30e6 },
	)
	z := e.CrossRate()
	if z < 15e6 || z > 21e6 {
		t.Errorf("cross rate = %.1f Mbit/s, want ~18", z/1e6)
	}
	if e.SRTT() != 70*time.Millisecond || e.MinRTT() != 50*time.Millisecond {
		t.Errorf("rtt bookkeeping: srtt=%v min=%v", e.SRTT(), e.MinRTT())
	}
}

func TestEstimatorElasticMirrorHasHighEta(t *testing.T) {
	// Cross traffic that mirrors our pulse (gives up exactly what we
	// pulse into the link) produces eta ~= 1.
	const mu = 48e6
	cfg := Config{Mu: mu, PulseFreq: 2, PulseAmp: 0.25}
	e := NewEstimator(cfg)
	pulse := func(at time.Duration) float64 {
		return 0.25 * mu * math.Sin(2*math.Pi*2*at.Seconds())
	}
	// rin carries the pulse; rout tracks rin (our service share keeps
	// up); the cross traffic's arrival implicitly mirrors, so rout =
	// rin exactly while the link stays saturated at mu with z = mu -
	// rin... feed the exact saturated-queue relation:
	// rout = mu * rin / (rin + z), z = 18e6 - pulse (elastic yield).
	rinF := func(at time.Duration) float64 { return 30e6 + pulse(at) }
	zF := func(at time.Duration) float64 { return 18e6 - pulse(at) }
	routF := func(at time.Duration) float64 {
		rin, z := rinF(at), zF(at)
		return mu * rin / (rin + z)
	}
	feed(e, 15*time.Second, mu, rinF, routF)
	eta, ok := e.Eta()
	if !ok {
		t.Fatal("no elasticity windows emitted")
	}
	if eta < 0.6 {
		t.Errorf("mirrored cross traffic eta = %.3f, want high", eta)
	}
	if !e.Elastic() {
		t.Error("should classify as elastic")
	}
}

func TestEstimatorInelasticFlatHasLowEta(t *testing.T) {
	const mu = 48e6
	cfg := Config{Mu: mu, PulseFreq: 2, PulseAmp: 0.25}
	e := NewEstimator(cfg)
	pulse := func(at time.Duration) float64 {
		return 0.25 * mu * math.Sin(2*math.Pi*2*at.Seconds())
	}
	// Inelastic cross traffic: z constant; our service share absorbs
	// the pulse.
	rinF := func(at time.Duration) float64 { return 25e6 + pulse(at) }
	routF := func(at time.Duration) float64 {
		rin := rinF(at)
		z := 18e6
		return mu * rin / (rin + z)
	}
	feed(e, 15*time.Second, mu, rinF, routF)
	eta, ok := e.Eta()
	if !ok {
		t.Fatal("no elasticity windows emitted")
	}
	if eta > 0.4 {
		t.Errorf("flat cross traffic eta = %.3f, want low", eta)
	}
	if e.Elastic() {
		t.Error("should classify as inelastic")
	}
}

func TestEstimatorAutoMu(t *testing.T) {
	// With Mu unset, the estimator tracks the max observed receive
	// rate.
	e := NewEstimator(Config{})
	feed(e, 5*time.Second, 0,
		func(time.Duration) float64 { return 40e6 },
		func(time.Duration) float64 { return 40e6 },
	)
	mu := e.Mu(5 * time.Second)
	if mu < 35e6 || mu > 45e6 {
		t.Errorf("auto mu = %.1f Mbit/s, want ~40", mu/1e6)
	}
}

func TestPulseIsMeanZeroSinusoid(t *testing.T) {
	e := NewEstimator(Config{Mu: 10e6, PulseFreq: 5, PulseAmp: 0.25})
	var sum float64
	const n = 1000
	for i := 0; i < n; i++ {
		at := time.Duration(i) * time.Millisecond
		p := e.Pulse(at)
		if p > 0.25+1e-9 || p < -0.25-1e-9 {
			t.Fatalf("pulse out of range: %v", p)
		}
		sum += p
	}
	// 1000ms covers exactly 5 periods at 5 Hz: mean ~0.
	if math.Abs(sum/n) > 1e-3 {
		t.Errorf("pulse mean = %v, want ~0", sum/n)
	}
}

func TestCCADelayModeDefaults(t *testing.T) {
	c := NewCCA(Config{Mu: 48e6})
	if c.CWnd() <= 0 {
		t.Error("cwnd must be positive before any acks")
	}
	if c.PacingRate() <= 0 {
		t.Error("pacing rate must be positive before any acks")
	}
}
