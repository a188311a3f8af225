// Package tcpinfo defines the TCP_INFO-style statistics snapshot shared
// by the emulated transport, the M-Lab NDT record schema, and the
// active probe. Field names mirror the Linux tcp_info / M-Lab NDT
// fields the paper's §3.1 analysis uses (AppLimited, RWndLimited,
// throughput and RTT over the flow's lifetime).
package tcpinfo

import "time"

// Snapshot is a point-in-time view of a flow's transport state.
// Cumulative fields count from the flow's start.
type Snapshot struct {
	// At is the snapshot time relative to flow start.
	At time.Duration `json:"at"`
	// BytesSent counts all bytes handed to the network, including
	// retransmissions.
	BytesSent int64 `json:"bytes_sent"`
	// BytesAcked counts unique delivered bytes.
	BytesAcked int64 `json:"bytes_acked"`
	// BytesRetrans counts retransmitted bytes.
	BytesRetrans int64 `json:"bytes_retrans"`
	// ThroughputBps is the delivery rate in bits/s measured over the
	// interval since the previous snapshot.
	ThroughputBps float64 `json:"throughput_bps"`
	// SRTT is the smoothed round-trip time.
	SRTT time.Duration `json:"srtt"`
	// MinRTT is the minimum RTT observed so far.
	MinRTT time.Duration `json:"min_rtt"`
	// CWnd is the congestion window in bytes.
	CWnd int `json:"cwnd"`
	// LostPackets counts loss events detected by the sender.
	LostPackets int64 `json:"lost_packets"`
	// AppLimited is the cumulative time the sender was willing to send
	// but had no application data (M-Lab NDT's AppLimited).
	AppLimited time.Duration `json:"app_limited"`
	// RWndLimited is the cumulative time the sender was blocked by the
	// receiver's advertised window (M-Lab NDT's RWndLimited).
	RWndLimited time.Duration `json:"rwnd_limited"`
	// BusyTime is the cumulative time the sender had data outstanding
	// and was neither app- nor rwnd-limited.
	BusyTime time.Duration `json:"busy_time"`
}

// AppLimitedFraction returns the fraction of elapsed time the flow was
// application limited (0 when At is 0).
func (s Snapshot) AppLimitedFraction() float64 {
	if s.At <= 0 {
		return 0
	}
	return float64(s.AppLimited) / float64(s.At)
}
