package cca

import (
	"math"
	"time"

	"repro/internal/sim"
	"repro/internal/transport"
)

// Cubic implements TCP Cubic (RFC 8312): window growth follows a cubic
// function of time since the last decrease, anchored at the window size
// before that decrease, with a Reno-friendly lower envelope.
type Cubic struct {
	mss      float64
	cwnd     float64 // bytes
	ssthresh float64

	wMax       float64 // window before last reduction (bytes)
	epochStart time.Duration
	hasEpoch   bool
	k          float64 // time offset of the cubic origin (seconds)

	lastTime time.Duration
}

// Cubic constants from RFC 8312: C in MSS/s^3 and beta.
const (
	cubicC    = 0.4
	cubicBeta = 0.7
)

// NewCubicCC returns a Cubic controller with an initial window of 10
// segments.
func NewCubicCC() *Cubic {
	return &Cubic{mss: sim.MSS, cwnd: 10 * sim.MSS, ssthresh: 1 << 30}
}

// OnAck implements transport.CCA.
func (c *Cubic) OnAck(a transport.AckInfo) {
	c.lastTime = a.Now
	if c.cwnd < c.ssthresh {
		c.cwnd += float64(a.AckedBytes)
		if c.cwnd > c.ssthresh {
			c.cwnd = c.ssthresh
		}
		return
	}
	if !c.hasEpoch {
		// First congestion-avoidance ack of the epoch.
		c.epochStart = a.Now
		c.hasEpoch = true
		if c.wMax < c.cwnd {
			c.wMax = c.cwnd
			c.k = 0
		} else {
			c.k = math.Cbrt((c.wMax/c.mss - c.cwnd/c.mss) / cubicC)
		}
	}
	t := (a.Now - c.epochStart).Seconds()
	rtt := a.SRTT.Seconds()
	// Cubic target window in MSS units.
	target := cubicC*math.Pow(t-c.k, 3) + c.wMax/c.mss
	// Reno-friendly estimate (RFC 8312 eq. 4).
	wEst := c.wMax/c.mss*cubicBeta + 3*(1-cubicBeta)/(1+cubicBeta)*(t/math.Max(rtt, 1e-4))
	if target < wEst {
		target = wEst
	}
	targetBytes := target * c.mss
	if targetBytes > c.cwnd {
		// Approach the target over one RTT worth of acks.
		c.cwnd += (targetBytes - c.cwnd) * float64(a.AckedBytes) / c.cwnd
	} else {
		// Tiny growth to stay probing (RFC 8312 §4.4).
		c.cwnd += 0.01 * c.mss * float64(a.AckedBytes) / c.cwnd
	}
}

// OnLoss implements transport.CCA.
func (c *Cubic) OnLoss(l transport.LossInfo) {
	c.wMax = c.cwnd
	c.cwnd *= cubicBeta
	if c.cwnd < 2*c.mss {
		c.cwnd = 2 * c.mss
	}
	c.ssthresh = c.cwnd
	c.hasEpoch = false
}

// OnTimeout implements transport.CCA.
func (c *Cubic) OnTimeout(time.Duration) {
	c.wMax = c.cwnd
	c.ssthresh = c.cwnd * cubicBeta
	if c.ssthresh < 2*c.mss {
		c.ssthresh = 2 * c.mss
	}
	c.cwnd = c.mss
	c.hasEpoch = false
}

// CWnd implements transport.CCA.
func (c *Cubic) CWnd() int { return int(c.cwnd) }

// PacingRate implements transport.CCA.
func (c *Cubic) PacingRate() float64 { return 0 }
