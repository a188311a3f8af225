// Package cca implements the congestion control algorithms used in the
// paper's experiments and discussion: Reno and NewReno (loss-based
// AIMD), Cubic, BBR (model-based, shown by Ware et al. to take more
// than its fair share against loss-based CCAs), Copa and Vegas
// (delay-based), and an unresponsive constant-bit-rate controller.
//
// All controllers operate in bytes and implement transport.CCA. They
// are deterministic and single-flow.
package cca

import (
	"time"

	"repro/internal/transport"
)

// NewRenoCC returns classic TCP Reno congestion control — slow start,
// additive increase of one MSS per RTT in congestion avoidance, and a
// multiplicative decrease to half on each loss event: the AIMD rule at
// (MSS, 0.5), with the standard initial window of 10 segments (RFC
// 6928).
func NewRenoCC() *AIMD { return newAIMD(aimdDecrease) }

// NewReno extends Reno with an explicit recovery point: while
// recovering from a loss epoch, subsequent loss signals do not reduce
// the window again, and the window is frozen until recovery completes
// (approximating RFC 6582 fast recovery with partial-ack handling).
type NewReno struct {
	AIMD
	inRecovery    bool
	recoveryMark  int64 // CumDelivered that ends recovery
	lastDelivered int64
}

// NewNewRenoCC returns a NewReno controller.
func NewNewRenoCC() *NewReno {
	return &NewReno{AIMD: *NewRenoCC()}
}

// OnAck implements transport.CCA.
func (nr *NewReno) OnAck(a transport.AckInfo) {
	nr.lastDelivered = a.CumDelivered
	if nr.inRecovery {
		if a.CumDelivered >= nr.recoveryMark {
			nr.inRecovery = false
		} else {
			return // hold the window during recovery
		}
	}
	nr.AIMD.OnAck(a)
}

// OnLoss implements transport.CCA.
func (nr *NewReno) OnLoss(l transport.LossInfo) {
	if nr.inRecovery {
		return
	}
	nr.inRecovery = true
	// Recovery ends once everything outstanding at the loss is
	// delivered.
	nr.recoveryMark = nr.lastDelivered + int64(l.Inflight)
	nr.AIMD.OnLoss(l)
}

// OnTimeout implements transport.CCA.
func (nr *NewReno) OnTimeout(now time.Duration) {
	nr.inRecovery = false
	nr.AIMD.OnTimeout(now)
}
