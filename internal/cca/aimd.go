package cca

import (
	"time"

	"repro/internal/sim"
	"repro/internal/transport"
)

// AIMD is the Chiu-Jain additive-increase/multiplicative-decrease rule
// with configurable parameters: increase a bytes per RTT, decrease by
// factor b on loss. AIMD(MSS, 0.5) is Reno's congestion-avoidance
// behaviour; other parameter points model "more aggressive,
// application-specific CCAs" (§2.1).
type AIMD struct {
	mss      float64
	cwnd     float64
	ssthresh float64
	incr     float64 // bytes per RTT
	decr     float64 // multiplicative factor in (0,1)
}

// NewAIMD returns an AIMD controller adding incrBytes per RTT and
// multiplying by decr on loss. Invalid parameters are clamped to
// Reno's.
func NewAIMD(incrBytes float64, decr float64) *AIMD {
	if incrBytes <= 0 {
		incrBytes = sim.MSS
	}
	if decr <= 0 || decr >= 1 {
		decr = 0.5
	}
	return &AIMD{mss: sim.MSS, cwnd: 10 * sim.MSS, ssthresh: 1 << 30, incr: incrBytes, decr: decr}
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
	a.cwnd += a.incr * float64(ai.AckedBytes) / a.cwnd
}

// OnLoss implements transport.CCA.
func (a *AIMD) OnLoss(transport.LossInfo) {
	a.ssthresh = a.cwnd * a.decr
	if a.ssthresh < 2*a.mss {
		a.ssthresh = 2 * a.mss
	}
	a.cwnd = a.ssthresh
}

// OnTimeout implements transport.CCA.
func (a *AIMD) OnTimeout(time.Duration) {
	a.ssthresh = a.cwnd * a.decr
	if a.ssthresh < 2*a.mss {
		a.ssthresh = 2 * a.mss
	}
	a.cwnd = a.mss
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
