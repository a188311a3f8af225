package cca

import (
	"time"

	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/transport"
)

// Copa implements Copa (Arun & Balakrishnan, NSDI '18) in its default
// mode: the controller targets a sending rate of 1/(delta * dq) packets
// per second, where dq is the measured queueing delay, and adjusts its
// window toward that target with a velocity term that accelerates
// persistent moves. The paper's §3.2 cites Copa's mode detection as a
// precursor of Nimbus's elasticity probing.
type Copa struct {
	mss   float64
	cwnd  float64
	delta float64

	velocity    float64
	direction   int // +1 up, -1 down, 0 none
	sameRTTs    int
	lastDirTime time.Duration
	srtt        time.Duration

	// Mode detection (§3.2 of the HotNets paper cites this as a
	// precursor of Nimbus's elasticity probing): Copa checks whether
	// the path's queueing delay periodically drains to near its
	// minimum, as Copa's own dynamics would make it. If it does not
	// for several windows, non-Copa buffer-filling cross traffic is
	// present and Copa switches to a TCP-competitive delta.
	ModeSwitching bool
	competitive   bool
	windowStart   time.Duration
	windowMinQ    time.Duration
	windowMaxQ    time.Duration
	badWindows    int
	// ModeTransitions counts mode flips (diagnostics).
	ModeTransitions int

	trace obs.Tracer
}

// SetTracer implements obs.TraceSetter: mode flips are emitted as
// EvState events ("default"/"competitive").
func (c *Copa) SetTracer(t obs.Tracer) { c.trace = t }

// setCompetitive flips the mode and traces the transition.
func (c *Copa) setCompetitive(now time.Duration, on bool) {
	c.competitive = on
	c.ModeTransitions++
	if c.trace != nil {
		note := "default"
		if on {
			note = "competitive"
		}
		c.trace.Emit(obs.Event{At: now, Type: obs.EvState, Src: "copa",
			V1: float64(c.ModeTransitions), Note: note})
	}
}

// NewCopaCC returns a Copa controller with the default delta of 0.5.
func NewCopaCC() *Copa { return NewCopaDelta(0.5) }

// NewCopaDelta returns a Copa controller with a custom delta; larger
// delta targets lower queueing delay at the cost of throughput share.
func NewCopaDelta(delta float64) *Copa {
	if delta <= 0 {
		delta = 0.5
	}
	return &Copa{mss: sim.MSS, cwnd: 10 * sim.MSS, delta: delta, velocity: 1}
}

// Name implements transport.CCA.
func (c *Copa) Name() string { return "copa" }

// OnAck implements transport.CCA.
func (c *Copa) OnAck(a transport.AckInfo) {
	c.srtt = a.SRTT
	dq := a.RTT - a.MinRTT
	rttSec := a.SRTT.Seconds()
	if rttSec <= 0 {
		return
	}
	if c.ModeSwitching {
		c.detectMode(a.Now, dq)
	}
	delta := c.delta
	if c.competitive {
		// TCP-competitive mode: a smaller delta tolerates more queue,
		// approximating loss-based behaviour (the reference
		// implementation scales delta down while competing).
		delta = c.delta / 4
	}
	var targetRate float64 // packets per second
	if dq <= 0 {
		targetRate = 1e12 // no queue: always increase
	} else {
		targetRate = 1 / (delta * dq.Seconds())
	}
	currentRate := c.cwnd / c.mss / rttSec // packets per second
	// Velocity update once per RTT.
	if a.Now-c.lastDirTime >= a.SRTT {
		dir := +1
		if currentRate > targetRate {
			dir = -1
		}
		if dir == c.direction {
			c.sameRTTs++
			if c.sameRTTs >= 3 {
				c.velocity *= 2
				if c.velocity > 1024 {
					c.velocity = 1024
				}
			}
		} else {
			c.direction = dir
			c.sameRTTs = 0
			c.velocity = 1
		}
		c.lastDirTime = a.Now
	}
	step := c.velocity * c.mss * float64(a.AckedBytes) / (c.delta * c.cwnd)
	if currentRate < targetRate {
		c.cwnd += step
	} else {
		c.cwnd -= step
	}
	if c.cwnd < 2*c.mss {
		c.cwnd = 2 * c.mss
	}
}

// detectMode evaluates Copa's oscillation test over 5-RTT windows: in
// Copa-only traffic the queueing delay empties (approaches zero) at
// least once per window; persistent failure to drain flips to
// competitive mode, and sustained draining flips back.
func (c *Copa) detectMode(now time.Duration, dq time.Duration) {
	if c.windowStart == 0 {
		c.windowStart = now
		c.windowMinQ = dq
		c.windowMaxQ = dq
		return
	}
	if dq < c.windowMinQ {
		c.windowMinQ = dq
	}
	if dq > c.windowMaxQ {
		c.windowMaxQ = dq
	}
	if now-c.windowStart < 5*c.srtt {
		return
	}
	// Did the queue nearly empty this window?
	drained := c.windowMaxQ <= 0 || c.windowMinQ*10 < c.windowMaxQ || c.windowMinQ < time.Millisecond
	if drained {
		if c.badWindows > 0 {
			c.badWindows--
		}
		if c.competitive && c.badWindows == 0 {
			c.setCompetitive(now, false)
		}
	} else {
		c.badWindows++
		if !c.competitive && c.badWindows >= 3 {
			c.setCompetitive(now, true)
		}
	}
	c.windowStart = now
	c.windowMinQ = dq
	c.windowMaxQ = dq
}

// OnLoss implements transport.CCA. Copa's default mode reacts to loss
// only mildly (it is delay-controlled); halve on loss epoch like its
// reference implementation's TCP-cooperation fallback.
func (c *Copa) OnLoss(transport.LossInfo) {
	c.cwnd /= 2
	if c.cwnd < 2*c.mss {
		c.cwnd = 2 * c.mss
	}
	c.velocity = 1
	c.direction = 0
	c.sameRTTs = 0
}

// OnTimeout implements transport.CCA.
func (c *Copa) OnTimeout(time.Duration) {
	c.cwnd = 2 * c.mss
	c.velocity = 1
	c.direction = 0
}

// CWnd implements transport.CCA.
func (c *Copa) CWnd() int { return int(c.cwnd) }

// PacingRate implements transport.CCA: Copa paces at 2x cwnd/RTT to
// smooth bursts, per the Copa paper.
func (c *Copa) PacingRate() float64 {
	if c.srtt <= 0 {
		return 0
	}
	return 2 * c.cwnd * 8 / c.srtt.Seconds()
}
