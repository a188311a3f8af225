// Package nimbus implements the elasticity-detection machinery the
// paper proposes as an active measurement tool (§3.2): a Nimbus-style
// congestion controller (Goyal et al., SIGCOMM '22) that estimates the
// cross-traffic rate on its path, superimposes mean-zero sinusoidal
// rate pulses, and measures how strongly the cross traffic responds at
// the pulse frequency. Cross traffic that yields bandwidth when the
// probe pulses up (backlogged CCA-controlled flows) is *elastic*;
// application-limited traffic (video, short flows, CBR) is *inelastic*.
//
// The paper's measurement configuration disables Nimbus's mode
// switching and keeps the oscillations running, reporting the
// elasticity metric as an indicator of CCA contention on the path;
// that is the default configuration here.
package nimbus

import (
	"math"
	"time"

	"repro/internal/dsp"
	"repro/internal/obs"
	"repro/internal/stats"
)

// The estimator's sampling, classification and smoothing constants,
// from the Nimbus design (Goyal et al., SIGCOMM '22).
const (
	// sampleInterval is the cross-traffic sampling period; it divides
	// the pulse period several times over.
	sampleInterval = 10 * time.Millisecond
	// EtaThreshold classifies a window as elastic when eta reaches it.
	EtaThreshold = 0.5
	// minRateFrac floors the base sending rate at this fraction of Mu
	// so the pulses remain observable even when cross traffic is
	// aggressive (the measurement tool is a speedtest and is entitled
	// to push).
	minRateFrac = 0.3
	// rateSmoothing is the EWMA factor of the send and delivery rate
	// estimates.
	rateSmoothing = 0.3
)

// Config parameterizes the estimator and controller. The zero value is
// usable: defaults are filled in by Norm.
type Config struct {
	// Mu is the bottleneck link rate in bits/s. When zero the
	// estimator tracks a windowed maximum of the observed receive rate
	// instead (adequate when the probe periodically saturates the
	// link, as a speedtest-style measurement does).
	Mu float64
	// PulseFreq is the rate-oscillation frequency in Hz (default 5,
	// the Nimbus paper's choice).
	PulseFreq float64
	// PulseAmp is the pulse amplitude as a fraction of Mu (default
	// 0.25).
	PulseAmp float64
	// WindowSamples is the FFT window length in samples (default 512,
	// i.e. ~5.1s at 10ms — matching Nimbus's 5-second windows).
	WindowSamples int
	// SlideInterval is how often a new elasticity value is emitted
	// (default 1s).
	SlideInterval time.Duration
}

// PaperConfig is the paper's elasticity probe on a link of rate mu
// bits/s (0 = auto-track): Nimbus with mode switching disabled,
// pulsing at 2 Hz. Nimbus's own default (5 Hz) assumes RTTs well under
// the pulse period; on the 100 ms Figure 3 link the loaded RTT
// approaches 200 ms, so elastic cross traffic cannot complete its
// control loop within a 5 Hz cycle. 2 Hz keeps the pulse period
// comfortably above the loaded RTT (abl-pulse sweeps this choice).
// Every simulated probe cell and the socket probe (cmd/probe) run it.
func PaperConfig(mu float64) Config {
	return Config{Mu: mu, PulseFreq: 2}
}

// targetQDelay is the delay-mode controller's queueing-delay target:
// 0.4 x minRTT clamped to [5ms, 50ms] (15ms before the first RTT
// sample). The standing queue must absorb the pulse troughs without
// the probe itself pinning the bottleneck buffer.
func targetQDelay(minRTT time.Duration) time.Duration {
	if minRTT <= 0 {
		return 15 * time.Millisecond
	}
	t := minRTT * 2 / 5
	if t < 5*time.Millisecond {
		t = 5 * time.Millisecond
	}
	if t > 50*time.Millisecond {
		t = 50 * time.Millisecond
	}
	return t
}

// Norm returns cfg with defaults filled in.
func (cfg Config) Norm() Config {
	if cfg.PulseFreq <= 0 {
		cfg.PulseFreq = 5
	}
	if cfg.PulseAmp <= 0 {
		cfg.PulseAmp = 0.25
	}
	if cfg.WindowSamples <= 0 {
		cfg.WindowSamples = 512
	}
	if !dsp.IsPowerOfTwo(cfg.WindowSamples) {
		cfg.WindowSamples = dsp.NextPowerOfTwo(cfg.WindowSamples)
	}
	if cfg.SlideInterval <= 0 {
		cfg.SlideInterval = time.Second
	}
	return cfg
}

// Estimator maintains the cross-traffic rate estimate z(t) and the
// spectral elasticity metric eta. It is driven by RecordSend/RecordAck
// callbacks from either the emulated transport or the real-socket
// probe; sampling ticks are derived lazily from those callbacks, so no
// timer plumbing is required.
type Estimator struct {
	cfg Config

	// Interval accumulators.
	tickStart  time.Duration
	sentBytes  int64
	ackedBytes int64
	started    bool

	rinEWMA  *stats.EWMA
	routEWMA *stats.EWMA
	rinHist  []float64 // recent rin samples for RTT alignment

	srtt   time.Duration
	minRTT time.Duration

	muFilter *stats.MaxFilter
	zbuf     []float64 // ring of z samples
	rbuf     []float64 // ring of aligned rin samples (same timebase)
	qbuf     []float64 // ring of queueing-delay samples (seconds)
	zlen     int
	zpos     int
	total    int // total z samples ever

	// Slide scratch, so computing eta allocates nothing: the Hann
	// window (computed once), the oldest-first copy of a ring that
	// window fills, and the spectrum's transform buffers.
	hann    []float64
	scratch []float64
	spec    dsp.Spectrum

	lastSlide time.Duration

	zLast    float64
	etaLast  float64
	overLast float64
	etaOK    bool

	// Elasticity is the time series of emitted eta values.
	Elasticity stats.Series
	// Trace, if non-nil, receives EvEta events (one per slide; V1 = eta,
	// V2 = cross-traffic rate estimate) and EvPulse events (one per pulse
	// cycle boundary; V1 = pulse frequency, V2 = cross rate).
	Trace obs.Tracer

	lastCycle int64
}

// NewEstimator returns an estimator with the given configuration.
func NewEstimator(cfg Config) *Estimator {
	cfg = cfg.Norm()
	return &Estimator{
		cfg:      cfg,
		rinEWMA:  stats.NewEWMA(rateSmoothing),
		routEWMA: stats.NewEWMA(rateSmoothing),
		muFilter: stats.NewMaxFilter(30 * time.Second),
		zbuf:     make([]float64, cfg.WindowSamples),
		rbuf:     make([]float64, cfg.WindowSamples),
		qbuf:     make([]float64, cfg.WindowSamples),
		hann:     dsp.Hann(cfg.WindowSamples),
		scratch:  make([]float64, cfg.WindowSamples),
	}
}

// Config returns the normalized configuration.
func (e *Estimator) Config() Config { return e.cfg }

// finite reports whether x is a usable sample (neither NaN nor Inf).
func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// RecordSend accounts bytes handed to the network at time now.
// Negative byte counts (a confused caller) are ignored rather than
// allowed to corrupt the rate accumulators.
func (e *Estimator) RecordSend(now time.Duration, bytes int) {
	if bytes < 0 {
		return
	}
	e.ensureStarted(now)
	e.sentBytes += int64(bytes)
	e.maybeTick(now)
}

// RecordAck accounts bytes acknowledged at time now with the given RTT
// sample and smoothed estimates. Negative bytes and non-positive RTT
// estimates are dropped at the door: garbage timing must not reach the
// queue-delay samples feeding the FFT.
func (e *Estimator) RecordAck(now time.Duration, bytes int, rtt, srtt, minRTT time.Duration) {
	if bytes < 0 {
		return
	}
	e.ensureStarted(now)
	e.ackedBytes += int64(bytes)
	if srtt > 0 {
		e.srtt = srtt
	}
	if minRTT > 0 {
		e.minRTT = minRTT
	}
	e.maybeTick(now)
}

func (e *Estimator) ensureStarted(now time.Duration) {
	if !e.started {
		e.started = true
		e.tickStart = now
		e.lastSlide = now
	}
}

// maybeTick closes any elapsed sample intervals. Callbacks arrive every
// few hundred microseconds under load, so quantization error is small.
// A wild clock jump (suspend/resume, a caller feeding wall-clock
// deltas) is bounded to a few windows of catch-up work: beyond that
// the intervening silence carries no signal, so the clock snaps
// forward instead of spinning through millions of empty intervals.
func (e *Estimator) maybeTick(now time.Duration) {
	if maxLag := time.Duration(4*e.cfg.WindowSamples) * sampleInterval; now-e.tickStart > maxLag {
		e.tickStart = now - maxLag
	}
	for now-e.tickStart >= sampleInterval {
		e.closeInterval(e.tickStart + sampleInterval)
	}
}

func (e *Estimator) closeInterval(end time.Duration) {
	dt := sampleInterval.Seconds()
	rin := float64(e.sentBytes) * 8 / dt
	rout := float64(e.ackedBytes) * 8 / dt
	e.sentBytes = 0
	e.ackedBytes = 0
	e.tickStart = end

	rinS := e.rinEWMA.Update(rin)
	routS := e.routEWMA.Update(rout)
	e.muFilter.Update(end, routS)

	mu := e.Mu(end)
	// Align rin with rout: the delivery rate observed now reflects the
	// send rate one RTT ago.
	e.rinHist = append(e.rinHist, rinS)
	if len(e.rinHist) > 1024 {
		e.rinHist = append(e.rinHist[:0], e.rinHist[512:]...)
	}
	lag := 0
	if e.srtt > 0 {
		lag = int(e.srtt / sampleInterval)
	}
	idx := len(e.rinHist) - 1 - lag
	if idx < 0 {
		idx = 0
	}
	rinD := e.rinHist[idx]

	var z float64
	switch {
	case mu <= 0 || routS <= 0 || !finite(mu) || !finite(rinD) || !finite(routS):
		// A zero-rate interval (outage, pre-start) or a poisoned input
		// gives the ratio no meaning: hold the last estimate rather
		// than let a division spray NaN/Inf into the FFT window.
		z = e.zLast
	default:
		z = mu*rinD/routS - rinD
		if !finite(z) {
			z = e.zLast
		}
		if z < 0 {
			z = 0
		}
		if z > 2*mu {
			z = 2 * mu
		}
	}
	if !finite(z) {
		z = 0
	}
	e.zLast = z
	qdel := (e.srtt - e.minRTT).Seconds()
	if qdel < 0 {
		qdel = 0
	}
	e.push(z, rinD, qdel)
	if cycle := int64(end.Seconds() * e.cfg.PulseFreq); cycle != e.lastCycle {
		e.lastCycle = cycle
		if e.Trace != nil {
			e.Trace.Emit(obs.Event{At: end, Type: obs.EvPulse, Src: "nimbus",
				Seq: cycle, V1: e.cfg.PulseFreq, V2: z})
		}
	}

	if end-e.lastSlide >= e.cfg.SlideInterval && e.total >= e.cfg.WindowSamples {
		e.lastSlide = end
		e.computeEta(end, mu)
	}
}

func (e *Estimator) push(z, rin, qdel float64) {
	e.zbuf[e.zpos] = z
	e.rbuf[e.zpos] = rin
	e.qbuf[e.zpos] = qdel
	e.zpos = (e.zpos + 1) % len(e.zbuf)
	if e.zlen < len(e.zbuf) {
		e.zlen++
	}
	e.total++
}

// window copies the given ring's samples oldest-first into the scratch
// and returns it: the next call overwrites what this one returned.
func (e *Estimator) window(buf []float64) []float64 {
	n := e.zlen
	out := e.scratch[:n]
	start := (e.zpos - n + len(buf)) % len(buf)
	for i := 0; i < n; i++ {
		out[i] = buf[(start+i)%len(buf)]
	}
	return out
}

// pulseAmp returns the amplitude of the signal at the pulse frequency
// after detrending and Hann windowing (both the z and rin signals pass
// the same path, so shared attenuation cancels in the eta ratio). x is
// a full window, and is detrended and windowed in place.
func (e *Estimator) pulseAmp(x []float64) float64 {
	dsp.Detrend(x)
	dsp.ApplyWindow(x, e.hann)
	e.spec.Compute(x, 1/sampleInterval.Seconds())
	return e.spec.AmplitudeAt(e.cfg.PulseFreq)
}

func (e *Estimator) computeEta(now time.Duration, mu float64) {
	if mu <= 0 {
		return
	}
	// Saturation gate: the cross-traffic estimator is only meaningful
	// while the bottleneck is busy (otherwise z = mu - rin trivially
	// mirrors our own pulse). If the path shows essentially no
	// queueing across the window, nothing is contending — report zero
	// elasticity, which is also the semantically correct verdict for
	// the measurement study.
	qs := e.window(e.qbuf)
	var qmean float64
	for _, q := range qs {
		qmean += q
	}
	if len(qs) > 0 {
		qmean /= float64(len(qs))
	}
	gate := 0.2 * targetQDelay(e.minRTT).Seconds()
	if gate < 1e-3 {
		gate = 1e-3
	}
	if qmean < gate {
		e.etaLast = 0
		e.etaOK = true
		e.Elasticity.Append(now, 0)
		if e.Trace != nil {
			e.Trace.Emit(obs.Event{At: now, Type: obs.EvEta, Src: "nimbus",
				V2: e.zLast, Note: "unsaturated"})
		}
		return
	}
	zs := e.window(e.zbuf)
	var zmean float64
	for _, z := range zs {
		zmean += z
	}
	if len(zs) > 0 {
		zmean /= float64(len(zs))
	}
	e.overLast = zmean / mu

	ampZ := e.pulseAmp(zs)
	ampR := e.pulseAmp(e.window(e.rbuf))
	// Normalize the cross-traffic response by the pulse actually sent
	// (self-calibrating: pacing caps, window limits, and spectral
	// attenuation affect both identically). Floor the denominator at a
	// quarter of the configured pulse so a throttled probe cannot
	// inflate eta.
	floor := 0.25 * e.cfg.PulseAmp * mu / 2 // /2: Hann coherent gain
	if ampR < floor {
		ampR = floor
	}
	eta := ampZ / ampR
	if !finite(eta) {
		// A degenerate window (all-NaN spectrum, zero-energy pulse)
		// yields no verdict: skip the slide rather than emit a
		// non-finite eta for downstream consumers to choke on.
		return
	}
	e.etaLast = eta
	e.etaOK = true
	e.Elasticity.Append(now, eta)
	if e.Trace != nil {
		e.Trace.Emit(obs.Event{At: now, Type: obs.EvEta, Src: "nimbus",
			V1: eta, V2: e.zLast})
	}
}

// OverloadFactor returns the window-mean cross-traffic estimate as a
// fraction of mu (diagnostic: values near or above 1 indicate cross
// traffic that is not yielding at all).
func (e *Estimator) OverloadFactor() float64 { return e.overLast }

// Mu returns the bottleneck rate estimate in bits/s at time now.
func (e *Estimator) Mu(now time.Duration) float64 {
	if e.cfg.Mu > 0 {
		return e.cfg.Mu
	}
	return e.muFilter.Value(now)
}

// CrossRate returns the latest cross-traffic rate estimate in bits/s.
func (e *Estimator) CrossRate() float64 { return e.zLast }

// Pulse evaluates the mean-zero rate pulse at time t as a fraction of
// Mu: PulseAmp * sin(2*pi*f*t).
func (e *Estimator) Pulse(t time.Duration) float64 {
	return e.cfg.PulseAmp * math.Sin(2*math.Pi*e.cfg.PulseFreq*t.Seconds())
}
