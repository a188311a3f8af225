package cca

import (
	"time"

	"repro/internal/sim"
	"repro/internal/transport"
)

// Copa implements Copa (Arun & Balakrishnan, NSDI '18) in its default
// mode only: the controller targets a sending rate of 1/(delta * dq)
// packets per second, where dq is the measured queueing delay, and
// adjusts its window toward that target with a velocity term that
// accelerates persistent moves. It has no mode detection and never
// switches to a TCP-competitive delta.
type Copa struct {
	mss  float64
	cwnd float64

	velocity    float64
	direction   int // +1 up, -1 down, 0 none
	sameRTTs    int
	lastDirTime time.Duration
	srtt        time.Duration
}

// copaDelta is Copa's default delta: larger targets lower queueing
// delay at the cost of throughput share.
const copaDelta = 0.5

// NewCopaCC returns a Copa controller.
func NewCopaCC() *Copa {
	return &Copa{mss: sim.MSS, cwnd: 10 * sim.MSS, velocity: 1}
}

// OnAck implements transport.CCA.
func (c *Copa) OnAck(a transport.AckInfo) {
	c.srtt = a.SRTT
	dq := a.RTT - a.MinRTT
	rttSec := a.SRTT.Seconds()
	if rttSec <= 0 {
		return
	}
	var targetRate float64 // packets per second
	if dq <= 0 {
		targetRate = 1e12 // no queue: always increase
	} else {
		targetRate = 1 / (copaDelta * dq.Seconds())
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
	step := c.velocity * c.mss * float64(a.AckedBytes) / (copaDelta * c.cwnd)
	if currentRate < targetRate {
		c.cwnd += step
	} else {
		c.cwnd -= step
	}
	if c.cwnd < 2*c.mss {
		c.cwnd = 2 * c.mss
	}
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
