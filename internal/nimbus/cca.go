package nimbus

import (
	"time"

	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/transport"
)

// CCA is the Nimbus delay-mode congestion controller in the paper's
// measurement configuration: it tracks the residual bandwidth while
// holding a small standing queue, maintains the bandwidth oscillations,
// and reports the elasticity of the path's cross traffic — turning the
// CCA into a contention sensor. It never switches to a competitive
// mode.
type CCA struct {
	Est *Estimator

	base    float64 // delay-mode base rate, bits/s
	srtt    time.Duration
	now     time.Duration
	started bool

	// pulse is Est.Pulse(pulseAt). The sender asks for the pacing rate
	// several times per ack at one instant; base may move between those
	// calls, the pulse cannot. pulseEvals counts the evaluations.
	pulseAt    time.Duration
	pulse      float64
	pulseEvals int64
}

// SetTracer implements obs.TraceSetter: the estimator's eta/pulse
// events go to t.
func (n *CCA) SetTracer(t obs.Tracer) { n.Est.Trace = t }

// NewCCA returns a Nimbus controller with the given estimator
// configuration.
func NewCCA(cfg Config) *CCA {
	return &CCA{Est: NewEstimator(cfg), pulseAt: -1}
}

// OnSend implements transport.SendObserver, feeding the estimator's
// send-rate accounting.
func (n *CCA) OnSend(now time.Duration, bytes, inflight int) {
	n.now = now
	n.Est.RecordSend(now, bytes)
}

// OnAck implements transport.CCA.
func (n *CCA) OnAck(a transport.AckInfo) {
	n.now = a.Now
	n.srtt = a.SRTT
	n.Est.RecordAck(a.Now, a.AckedBytes, a.RTT, a.SRTT, a.MinRTT)
	n.ensureStarted(a.Now)
	n.updateBase(a)
}

func (n *CCA) ensureStarted(now time.Duration) {
	if n.started {
		return
	}
	n.started = true
	mu := n.Est.Mu(now)
	if mu > 0 {
		n.base = minRateFrac * mu
	} else {
		n.base = 8 * 10 * sim.MSS / 0.1 // nominal until mu is learned
	}
}

// updateBase runs the delay-mode rate controller: additively increase
// while the queueing delay is below target, multiplicatively back off
// proportionally to the excess otherwise.
func (n *CCA) updateBase(a transport.AckInfo) {
	mu := n.Est.Mu(a.Now)
	if mu <= 0 {
		// Still learning the link rate: climb multiplicatively.
		n.base *= 1.01
		return
	}
	target := targetQDelay(a.MinRTT)
	qdel := a.RTT - a.MinRTT
	// Per-ack step scaled so the aggregate adjustment per RTT is a few
	// percent of mu.
	step := 0.05 * mu * float64(a.AckedBytes) / (mu / 8 * maxSec(a.SRTT, time.Millisecond))
	if qdel < target {
		n.base += step
	} else {
		excess := float64(qdel-target) / float64(target)
		if excess > 1 {
			excess = 1
		}
		n.base -= 2 * step * excess
	}
	if min := minRateFrac * mu; n.base < min {
		n.base = min
	}
	if n.base > mu {
		n.base = mu
	}
}

func maxSec(d, min time.Duration) float64 {
	if d < min {
		d = min
	}
	return d.Seconds()
}

// OnLoss implements transport.CCA. Delay mode absorbs isolated losses.
func (n *CCA) OnLoss(transport.LossInfo) {}

// OnTimeout implements transport.CCA.
func (n *CCA) OnTimeout(now time.Duration) {
	mu := n.Est.Mu(now)
	if mu > 0 {
		n.base = minRateFrac * mu
	}
}

// CWnd implements transport.CCA: cap inflight at twice the pipe implied
// by the pacing rate so pacing, not the window, governs.
func (n *CCA) CWnd() int {
	rtt := n.srtt
	if rtt <= 0 {
		rtt = 100 * time.Millisecond
	}
	w := 2 * n.PacingRate() / 8 * rtt.Seconds()
	if w < 4*sim.MSS {
		w = 4 * sim.MSS
	}
	return int(w)
}

// PacingRate implements transport.CCA: the delay-mode base rate plus
// the mean-zero elasticity pulse (always maintained, per §3.2's
// "maintain the bandwidth oscillations").
func (n *CCA) PacingRate() float64 {
	mu := n.Est.Mu(n.now)
	rate := n.base
	if mu > 0 {
		if n.pulseAt != n.now {
			n.pulseAt, n.pulse = n.now, n.Est.Pulse(n.now)
			n.pulseEvals++
		}
		rate += n.pulse * mu
	}
	floor := 2.0 * 8 * sim.MSS / 0.1 // never below ~2 packets per 100ms
	if rate < floor {
		rate = floor
	}
	return rate
}
