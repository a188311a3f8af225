package cca

import (
	"time"

	"repro/internal/sim"
	"repro/internal/transport"
)

// Vegas implements TCP Vegas: once per RTT it compares the expected
// rate (cwnd/baseRTT) with the actual rate (cwnd/RTT) and nudges the
// window to keep between alpha and beta packets queued at the
// bottleneck.
type Vegas struct {
	mss         float64
	cwnd        float64
	ssthresh    float64
	alpha, beta float64 // in packets
	lastAdjust  time.Duration
}

// NewVegasCC returns a Vegas controller with the classic alpha=2,
// beta=4 thresholds.
func NewVegasCC() *Vegas {
	return &Vegas{mss: sim.MSS, cwnd: 10 * sim.MSS, ssthresh: 1 << 30, alpha: 2, beta: 4}
}

// OnAck implements transport.CCA.
func (v *Vegas) OnAck(a transport.AckInfo) {
	base := a.MinRTT.Seconds()
	cur := a.SRTT.Seconds()
	if base <= 0 || cur <= 0 {
		return
	}
	expected := v.cwnd / base // bytes/s
	actual := v.cwnd / cur
	diffPkts := (expected - actual) * base / v.mss
	if v.cwnd < v.ssthresh {
		// Vegas slow start: grow exponentially at half Reno's pace,
		// but exit as soon as the queue estimate exceeds gamma (one
		// packet) — Vegas's early slow-start exit.
		if diffPkts > 1 {
			v.ssthresh = v.cwnd
		} else {
			v.cwnd += float64(a.AckedBytes) / 2
		}
	}
	if a.Now-v.lastAdjust < a.SRTT {
		return
	}
	v.lastAdjust = a.Now
	switch {
	case diffPkts < v.alpha:
		v.cwnd += v.mss
	case diffPkts > v.beta:
		v.cwnd -= v.mss
	}
	if v.cwnd < 2*v.mss {
		v.cwnd = 2 * v.mss
	}
}

// OnLoss implements transport.CCA.
func (v *Vegas) OnLoss(transport.LossInfo) {
	v.ssthresh = v.cwnd / 2
	v.cwnd = v.cwnd * 3 / 4 // Vegas halves less aggressively than Reno
	if v.cwnd < 2*v.mss {
		v.cwnd = 2 * v.mss
	}
}

// OnTimeout implements transport.CCA.
func (v *Vegas) OnTimeout(time.Duration) {
	v.ssthresh = v.cwnd / 2
	v.cwnd = 2 * v.mss
}

// CWnd implements transport.CCA.
func (v *Vegas) CWnd() int { return int(v.cwnd) }

// PacingRate implements transport.CCA.
func (v *Vegas) PacingRate() float64 { return 0 }
