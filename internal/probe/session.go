package probe

import (
	"fmt"
	"net"
	"net/netip"
	"time"

	"repro/internal/mlab"
	"repro/internal/tcpinfo"
)

// RecordSink receives finalized per-session summaries. *spool.Writer
// satisfies it; tests substitute an in-memory sink.
type RecordSink interface {
	Append(v any) error
}

// Session end causes recorded in the spool.
const (
	EndBye     = "bye"     // client said goodbye
	EndEvicted = "evicted" // TTL sweep reclaimed an idle session
	EndDrained = "drained" // server drained for shutdown mid-session
	EndClosed  = "closed"  // server closed without a drain
)

// SessionRecord is one spool line: a valid internal/mlab NDT record
// (mlabanalyze consumes spool files directly; the extra "probe" object
// is ignored by the mlab decoder) carrying the probe-side summary.
type SessionRecord struct {
	mlab.Record
	Probe SessionSummary `json:"probe"`
}

// SessionSummary is the probe-specific side of a spool record.
type SessionSummary struct {
	// Session is the wire session id in hex (a string so 64-bit ids
	// survive float-parsing JSON consumers).
	Session string `json:"session"`
	// Addr is the client's address as first seen.
	Addr string `json:"addr"`
	// Packets and Bytes count data packets served.
	Packets int64 `json:"packets"`
	Bytes   int64 `json:"bytes"`
	// EndCause is why the session ended: bye, evicted, drained, closed.
	EndCause string `json:"end_cause"`
	// DelayMeanMs/DelayMaxMs summarize the server-side one-way
	// queueing-delay proxy (receive time minus client send timestamp,
	// baselined at the session minimum — clock offset cancels).
	DelayMeanMs float64 `json:"delay_mean_ms"`
	DelayMaxMs  float64 `json:"delay_max_ms"`
}

// session is one tracked client, guarded by the server's table lock.
type session struct {
	id    uint64
	addr  string         // the admitting address as the spool prints it
	from  netip.AddrPort // the same address, compared per packet
	start time.Duration  // server-monotonic admission time
	last  time.Duration

	packets int64
	bytes   int64

	// One-way delay proxy: recv(server mono) - send(client mono) has an
	// unknown constant offset; tracking the minimum and the deviation
	// above it yields queueing delay without synchronized clocks.
	owdMin     int64 // nanos; MaxInt64 until the first sample
	qdelayEWMA float64
	qdelayMax  float64

	// Throughput snapshots at the configured cadence, in the mlab
	// schema so the spool record carries a change-point-analyzable
	// trace.
	snaps     []tcpinfo.Snapshot
	snapAt    time.Duration
	snapBytes int64
}

// maxSnapshots bounds per-session snapshot memory: 6 minutes at the
// default cadence.
const maxSnapshots = 720

// noteData folds one data packet into the session. Caller holds the
// table lock. Returns the instantaneous queueing-delay proxy in
// nanoseconds (-1 when unknown).
func (se *session) noteData(now time.Duration, n int, sendNano int64, interval time.Duration) int64 {
	se.last = now
	se.packets++
	se.bytes += int64(n)
	qdelay := int64(-1)
	if owd, ok := sub64(now.Nanoseconds(), sendNano); ok {
		se.owdMin = min(se.owdMin, owd)
		// With a client clock that only moves forward, owd - owdMin is
		// at most the time since the minimum's packet, so a delay longer
		// than the session's age comes from a forged or wrapped stamp.
		if d, ok := sub64(owd, se.owdMin); ok && d <= int64(now-se.start) {
			qdelay = d
			q := float64(d)
			if se.qdelayEWMA == 0 {
				se.qdelayEWMA = q
			} else {
				se.qdelayEWMA += (q - se.qdelayEWMA) / 8
			}
			if q > se.qdelayMax {
				se.qdelayMax = q
			}
		}
	}
	if now-se.snapAt >= interval && len(se.snaps) < maxSnapshots {
		se.appendSnapshot(now)
	}
	return qdelay
}

// sub64 returns a - b and whether it did not overflow int64.
func sub64(a, b int64) (int64, bool) {
	d := a - b
	return d, (a^b)&(a^d) >= 0
}

// appendSnapshot closes the current accounting interval. Caller holds
// the table lock.
func (se *session) appendSnapshot(now time.Duration) {
	dt := (now - se.snapAt).Seconds()
	if dt <= 0 {
		return
	}
	at := now - se.start
	se.snaps = append(se.snaps, tcpinfo.Snapshot{
		At:            at,
		BytesSent:     se.bytes,
		BytesAcked:    se.bytes,
		ThroughputBps: float64(se.bytes-se.snapBytes) * 8 / dt,
		SRTT:          time.Duration(se.qdelayEWMA),
		// The probe stream is backlogged by construction: it is never
		// application- or receiver-limited, so the analysis pipeline's
		// filters pass it through to change-point detection.
		BusyTime: at,
	})
	se.snapAt = now
	se.snapBytes = se.bytes
}

// record finalizes the session into a spool line.
func (se *session) record(now time.Duration, wallBase time.Time, cause string) SessionRecord {
	if se.bytes > se.snapBytes || len(se.snaps) == 0 {
		se.appendSnapshot(now)
	}
	dur := now - se.start
	var mean float64
	if d := dur.Seconds(); d > 0 {
		mean = float64(se.bytes) * 8 / d
	}
	return SessionRecord{
		Record: mlab.Record{
			ID:                fmt.Sprintf("probe-%016x", se.id),
			Start:             wallBase.Add(se.start),
			Duration:          dur,
			Access:            mlab.AccessEthernet,
			Snapshots:         se.snaps,
			MeanThroughputBps: mean,
		},
		Probe: SessionSummary{
			Session:     fmt.Sprintf("%016x", se.id),
			Addr:        se.addr,
			Packets:     se.packets,
			Bytes:       se.bytes,
			EndCause:    cause,
			DelayMeanMs: se.qdelayEWMA / 1e6,
			DelayMaxMs:  se.qdelayMax / 1e6,
		},
	}
}

func addrString(a *net.UDPAddr) string {
	if a == nil {
		return ""
	}
	return a.String()
}

// addrKey is a as a comparable value that does not allocate. A 4-in-6
// address is unmapped, so an IPv4 source compares equal in its 4- and
// 16-byte forms, as addrString prints both the same.
func addrKey(a *net.UDPAddr) netip.AddrPort {
	ap := a.AddrPort()
	return netip.AddrPortFrom(ap.Addr().Unmap(), ap.Port())
}
