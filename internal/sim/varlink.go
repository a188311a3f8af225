package sim

import (
	"math/rand"
	"time"

	"repro/internal/obs"
)

// RateDriver varies a link's rate over time, modelling the
// high-variability links (cellular, satellite) that §2.3 and §5.1 of
// the paper argue are the environments future CCAs should target.
// Rate changes apply to subsequent transmissions; a packet mid-flight
// finishes at the rate it started with, matching how a fading radio
// link drains its current frame.
type RateDriver struct {
	// Trace records the applied (time, rate) steps for analysis.
	Trace []RatePoint
}

// RatePoint is one step of a rate trace.
type RatePoint struct {
	At  time.Duration
	Bps float64
}

// DriveRate applies rate(t) to the link every interval.
func DriveRate(eng *Engine, link *Link, interval time.Duration, rate func(t time.Duration) float64) *RateDriver {
	if interval <= 0 {
		interval = 100 * time.Millisecond
	}
	d := &RateDriver{}
	var tick func()
	tick = func() {
		r := rate(eng.Now())
		if r < 1e3 {
			r = 1e3 // never zero: the emulator needs a positive rate
		}
		link.Rate = r
		d.Trace = append(d.Trace, RatePoint{At: eng.Now(), Bps: r})
		if link.Trace != nil {
			// Stamped with the engine's virtual clock, never wall time.
			link.Trace.Emit(obs.Event{At: eng.Now(), Type: obs.EvRate, Src: link.Name, V1: r})
		}
		eng.Schedule(interval, tick)
	}
	tick()
	return d
}

// cellularSigma is CellularTrace's step size per sample.
const cellularSigma = 0.15

// CellularTrace returns a rate function modelling a fading cellular
// link: a mean-reverting random walk around mean with step size
// cellularSigma, clamped to [mean/5, 2*mean]. Mean reversion keeps the
// long-run average near mean (a plain geometric walk drifts into its
// clamps). The function is stateful and must be sampled at
// monotonically non-decreasing times (as DriveRate does).
func CellularTrace(rng *rand.Rand, mean float64) func(t time.Duration) float64 {
	level := 1.0
	return func(time.Duration) float64 {
		level += 0.1*(1-level) + cellularSigma*rng.NormFloat64()
		if level < 0.2 {
			level = 0.2
		}
		if level > 2 {
			level = 2
		}
		return mean * level
	}
}
