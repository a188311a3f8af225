package cca

import (
	"time"

	"repro/internal/sim"
	"repro/internal/transport"
)

// AIMD is the Chiu-Jain additive-increase/multiplicative-decrease rule
// at Reno's point: slow start, then one MSS per RTT added in congestion
// avoidance and the window halved on loss. The registry's "reno" and
// "aimd" both build it (NewRenoCC).
type AIMD struct {
	cwnd     float64
	ssthresh float64
	decr     float64 // multiplicative factor in (0,1)
}

// aimdDecrease is Reno's multiplicative decrease. The package's tests
// pull the decrease lever to model the "more aggressive,
// application-specific CCAs" of §2.1.
const aimdDecrease = 0.5

// newAIMD returns an AIMD controller that multiplies its window by decr
// on loss, with the standard initial window of 10 segments (RFC 6928).
func newAIMD(decr float64) *AIMD {
	return &AIMD{cwnd: 10 * sim.MSS, ssthresh: 1 << 30, decr: decr}
}

// OnAck implements transport.CCA.
func (a *AIMD) OnAck(ai transport.AckInfo) {
	if a.cwnd < a.ssthresh {
		a.cwnd += float64(ai.AckedBytes)
		if a.cwnd > a.ssthresh {
			a.cwnd = a.ssthresh
		}
		return
	}
	a.cwnd += sim.MSS * float64(ai.AckedBytes) / a.cwnd
}

// OnLoss implements transport.CCA.
func (a *AIMD) OnLoss(transport.LossInfo) {
	a.ssthresh = a.cwnd * a.decr
	if a.ssthresh < 2*sim.MSS {
		a.ssthresh = 2 * sim.MSS
	}
	a.cwnd = a.ssthresh
}

// OnTimeout implements transport.CCA.
func (a *AIMD) OnTimeout(time.Duration) {
	a.ssthresh = a.cwnd * a.decr
	if a.ssthresh < 2*sim.MSS {
		a.ssthresh = 2 * sim.MSS
	}
	a.cwnd = sim.MSS
}

// CWnd implements transport.CCA.
func (a *AIMD) CWnd() int { return int(a.cwnd) }

// PacingRate implements transport.CCA.
func (a *AIMD) PacingRate() float64 { return 0 }

// CBR is an unresponsive constant-bit-rate controller modelling UDP
// traffic such as the CBR phase of the paper's Figure 3: it paces at a
// fixed rate and ignores all congestion signals.
type CBR struct {
	rate float64 // bits/s
}

// NewCBR returns a constant-bit-rate controller at rateBits bits/s.
func NewCBR(rateBits float64) *CBR { return &CBR{rate: rateBits} }

// OnAck implements transport.CCA.
func (c *CBR) OnAck(transport.AckInfo) {}

// OnLoss implements transport.CCA.
func (c *CBR) OnLoss(transport.LossInfo) {}

// OnTimeout implements transport.CCA.
func (c *CBR) OnTimeout(time.Duration) {}

// CWnd implements transport.CCA: effectively unbounded so only the
// pacing rate governs.
func (c *CBR) CWnd() int { return 1 << 30 }

// PacingRate implements transport.CCA.
func (c *CBR) PacingRate() float64 { return c.rate }
