package mlab

import (
	"math"
	"strconv"
	"time"

	"repro/internal/tcpinfo"
)

// appendRecord appends rec's JSONL line to b by hand instead of by
// reflection: exactly the bytes json.NewEncoder(w).Encode(rec) writes,
// trailing '\n' included. Keys come in Record's and tcpinfo.Snapshot's
// field order, integers and durations through strconv.AppendInt,
// floats by encoding/json's rule, Start as time.Time.MarshalJSON
// formats it, and truth_label only when set. It returns false
// ("declined") on anything it cannot write with certainty: a string
// encoding/json would escape or check as UTF-8 (a control byte, '"',
// '\\', '<', '>', '&' or any non-ASCII byte), NaN or ±Inf, or a Start
// that MarshalJSON rejects (a year outside [0, 9999] or a zone offset
// of 24 hours or more). A declined call may have written into b's
// spare capacity; the caller then hands rec to encoding/json, which
// alone writes such a record or says why it cannot. It is scanRecord's
// inverse: the scanner reads every line it writes back to rec (Start
// as the instant its RFC 3339 text names), but for nil Snapshots,
// whose "null" it leaves to encoding/json.
func appendRecord(b []byte, rec *Record) ([]byte, bool) {
	e := encoder{b: b, ok: true}
	e.raw(`{"id":`)
	e.str(rec.ID)
	e.raw(`,"start":`)
	e.time(rec.Start)
	e.raw(`,"duration":`)
	e.int(int64(rec.Duration))
	e.raw(`,"access":`)
	e.str(string(rec.Access))
	e.raw(`,"snapshots":`)
	if rec.Snapshots == nil {
		e.raw("null")
	} else {
		e.raw("[")
		for i := range rec.Snapshots {
			if i > 0 {
				e.raw(",")
			}
			e.snapshot(&rec.Snapshots[i])
		}
		e.raw("]")
	}
	e.raw(`,"mean_throughput_bps":`)
	e.float(rec.MeanThroughputBps)
	if rec.TruthLabel != "" {
		e.raw(`,"truth_label":`)
		e.str(string(rec.TruthLabel))
	}
	e.raw("}\n")
	return e.b, e.ok
}

// encoder appends one line; ok turns false at the first value it
// declines.
type encoder struct {
	b  []byte
	ok bool
}

func (e *encoder) raw(s string) { e.b = append(e.b, s...) }

func (e *encoder) int(v int64) { e.b = strconv.AppendInt(e.b, v, 10) }

// str appends s quoted, declining any string encoding/json would not
// copy through unchanged.
func (e *encoder) str(s string) {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x80 || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			e.ok = false
			return
		}
	}
	e.b = append(e.b, '"')
	e.b = append(e.b, s...)
	e.b = append(e.b, '"')
}

// float appends f as encoding/json does: the shortest 'f' form, or
// the 'e' form with a one-digit exponent unpadded (e-7, not e-07)
// when |f| < 1e-6 or |f| >= 1e21.
func (e *encoder) float(f float64) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		e.ok = false
		return
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	e.b = strconv.AppendFloat(e.b, f, format, -1, 64)
	if n := len(e.b); format == 'e' && e.b[n-4] == 'e' && e.b[n-3] == '-' && e.b[n-2] == '0' {
		e.b[n-2] = e.b[n-1]
		e.b = e.b[:n-1]
	}
}

// time appends t quoted in RFC 3339 with nanoseconds, declining what
// time.Time.MarshalJSON rejects by the same checks on the same bytes.
func (e *encoder) time(t time.Time) {
	e.b = append(e.b, '"')
	n0 := len(e.b)
	e.b = t.AppendFormat(e.b, time.RFC3339Nano)
	b := e.b
	if b[n0+len("9999")] != '-' { // a year of exactly four digits
		e.ok = false
	} else if b[len(b)-1] != 'Z' { // a zone offset under 24 hours
		c := b[len(b)-len("Z07:00")]
		hours := 10*(b[len(b)-5]-'0') + b[len(b)-4] - '0'
		if '0' <= c && c <= '9' || hours >= 24 {
			e.ok = false
		}
	}
	e.b = append(e.b, '"')
}

// snapshot appends one element in tcpinfo.Snapshot's field order.
func (e *encoder) snapshot(p *tcpinfo.Snapshot) {
	e.raw(`{"at":`)
	e.int(int64(p.At))
	e.raw(`,"bytes_sent":`)
	e.int(p.BytesSent)
	e.raw(`,"bytes_acked":`)
	e.int(p.BytesAcked)
	e.raw(`,"bytes_retrans":`)
	e.int(p.BytesRetrans)
	e.raw(`,"throughput_bps":`)
	e.float(p.ThroughputBps)
	e.raw(`,"srtt":`)
	e.int(int64(p.SRTT))
	e.raw(`,"min_rtt":`)
	e.int(int64(p.MinRTT))
	e.raw(`,"cwnd":`)
	e.int(int64(p.CWnd))
	e.raw(`,"lost_packets":`)
	e.int(p.LostPackets)
	e.raw(`,"app_limited":`)
	e.int(int64(p.AppLimited))
	e.raw(`,"rwnd_limited":`)
	e.int(int64(p.RWndLimited))
	e.raw(`,"busy_time":`)
	e.int(int64(p.BusyTime))
	e.raw("}")
}
