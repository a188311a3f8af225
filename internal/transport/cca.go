// Package transport implements TCP-like flow endpoints on top of the
// sim emulator: QUIC-style monotonically increasing packet numbers,
// per-packet acknowledgments, packet-threshold and timeout loss
// detection, RTT estimation, pacing, and the application-limited
// accounting that the M-Lab NDT analysis in §3.1 of the paper relies
// on. Receivers never limit a flow: there is no advertised window.
package transport

import "time"

// AckInfo carries everything a congestion controller may want to know
// about one acknowledged packet.
type AckInfo struct {
	// Now is the current virtual time.
	Now time.Duration
	// AckedBytes is the size of the newly acknowledged packet.
	AckedBytes int
	// RTT is this packet's round-trip sample.
	RTT time.Duration
	// SRTT and MinRTT are the sender's current smoothed and minimum
	// RTT estimates (already updated with this sample).
	SRTT   time.Duration
	MinRTT time.Duration
	// Inflight is the number of outstanding bytes after this ack.
	Inflight int
	// DeliveryRate is a per-packet delivery rate sample in bits/s,
	// computed the way BBR's rate estimator does: unique bytes
	// delivered between this packet's transmission and its
	// acknowledgment, divided by the elapsed time.
	DeliveryRate float64
	// CumDelivered is the total unique bytes delivered so far.
	CumDelivered int64
}

// LossInfo describes a loss event. The sender reports at most one loss
// event per round trip (loss epoch), matching fast-recovery semantics.
type LossInfo struct {
	Now time.Duration
	// Inflight is the number of outstanding bytes after removing the
	// lost packet.
	Inflight int
	// LostBytes is the size of the packet that triggered the event.
	LostBytes int
}

// CCA is a congestion control algorithm driving one sender. CWnd bounds
// bytes in flight; PacingRate, when positive, additionally paces
// transmissions. Implementations are single-flow and not safe for
// concurrent use (the simulator is single-threaded).
type CCA interface {
	// OnAck is invoked for every newly acknowledged packet.
	OnAck(a AckInfo)
	// OnLoss is invoked once per loss epoch.
	OnLoss(l LossInfo)
	// OnTimeout is invoked when the retransmission timer fires.
	OnTimeout(now time.Duration)
	// CWnd returns the congestion window in bytes.
	CWnd() int
	// PacingRate returns the pacing rate in bits/s, or 0 to send
	// ack-clocked at window speed.
	PacingRate() float64
}

// SendObserver is an optional interface a CCA may implement to observe
// its own transmissions (Nimbus needs its true send rate, which can
// differ from the pacing rate when the window binds).
type SendObserver interface {
	OnSend(now time.Duration, bytes, inflight int)
}
