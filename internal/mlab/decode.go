package mlab

import (
	"bytes"
	"strconv"
	"time"

	"repro/internal/tcpinfo"
)

// scanRecord decodes line into rec, which must be freshly reset, by
// hand instead of by reflection. It is the inverse of appendRecord
// (encode.go), which writes every JSONLWriter line it does not leave
// to encoding/json, and it accepts exactly that shape, in any key
// order, with any JSON whitespace, missing fields and duplicate keys
// (but not "snapshots":null, which appendRecord writes for nil
// Snapshots and encoding/json decodes): an object of exact-case known
// keys whose strings are plain ASCII without escapes and whose numbers
// follow the JSON grammar and parse as encoding/json would parse them
// (strconv.ParseInt base 10, strconv.ParseFloat 64 bits; "start"
// through time.Time.UnmarshalJSON on its raw token). A key that names
// no field even case-insensitively has its value checked and skipped,
// as encoding/json skips it, so the probe spool's lines (a record plus
// a "probe" object) take this path too. It returns false ("declined")
// on anything else, with rec possibly half written; the caller then
// resets rec and hands the line to encoding/json, so an accepted line
// decodes exactly as json.Unmarshal decodes it and every other line
// keeps encoding/json's result and error text.
func scanRecord(line []byte, rec *Record) bool {
	s := scanner{b: line}
	if !s.record(rec) {
		return false
	}
	s.skipSpace()
	return s.i == len(s.b)
}

// scanner is a cursor over one JSONL line.
type scanner struct {
	b []byte
	i int
}

func (s *scanner) skipSpace() {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ' ', '\t', '\n', '\r':
			s.i++
		default:
			return
		}
	}
}

// consume skips whitespace and then c, reporting whether c was there.
func (s *scanner) consume(c byte) bool {
	s.skipSpace()
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// more follows a member or element: it consumes a ',' (true, another
// one follows) or the closing byte (false, done). ok is false on
// anything else.
func (s *scanner) more(closing byte) (more, ok bool) {
	s.skipSpace()
	if s.i < len(s.b) {
		switch s.b[s.i] {
		case ',':
			s.i++
			return true, true
		case closing:
			s.i++
			return false, true
		}
	}
	return false, false
}

// token returns the next string token with its quotes. Only ASCII
// without escapes or control bytes is accepted: encoding/json copies
// such a string's bytes through unchanged.
func (s *scanner) token() ([]byte, bool) {
	s.skipSpace()
	if s.i >= len(s.b) || s.b[s.i] != '"' {
		return nil, false
	}
	for j := s.i + 1; j < len(s.b); j++ {
		switch c := s.b[j]; {
		case c == '"':
			tok := s.b[s.i : j+1]
			s.i = j + 1
			return tok, true
		case c < 0x20 || c == '\\' || c >= 0x80:
			return nil, false
		}
	}
	return nil, false
}

// str returns the next string's contents.
func (s *scanner) str() ([]byte, bool) {
	tok, ok := s.token()
	if !ok {
		return nil, false
	}
	return tok[1 : len(tok)-1], true
}

// key returns the next member's name and consumes its ':'.
func (s *scanner) key() ([]byte, bool) {
	k, ok := s.str()
	return k, ok && s.consume(':')
}

// number returns the next number token, checked against the JSON
// grammar (strconv alone would also take "+1", "01", "0x1p0" or "Inf").
func (s *scanner) number() ([]byte, bool) {
	s.skipSpace()
	b, i := s.b, s.i
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = digits(b, i+1)
	default:
		return nil, false
	}
	if i < len(b) && b[i] == '.' {
		if i+1 >= len(b) || !isDigit(b[i+1]) {
			return nil, false
		}
		i = digits(b, i+1)
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if i >= len(b) || !isDigit(b[i]) {
			return nil, false
		}
		i = digits(b, i)
	}
	tok := b[s.i:i]
	s.i = i
	return tok, true
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// digits returns the index of the first non-digit at or after i.
func digits(b []byte, i int) int {
	for i < len(b) && isDigit(b[i]) {
		i++
	}
	return i
}

// integer parses the next number into *v as encoding/json parses an
// integer field.
func (s *scanner) integer(v *int64) bool {
	tok, ok := s.number()
	if !ok {
		return false
	}
	n, err := strconv.ParseInt(string(tok), 10, 64)
	*v = n
	return err == nil
}

// float parses the next number into *v as encoding/json parses a
// float64 field.
func (s *scanner) float(v *float64) bool {
	tok, ok := s.number()
	if !ok {
		return false
	}
	f, err := strconv.ParseFloat(string(tok), 64)
	*v = f
	return err == nil
}

func (s *scanner) duration(d *time.Duration) bool {
	return s.integer((*int64)(d))
}

// object decodes one object, handing each member's key to member,
// which decodes the value and reports whether it could.
func (s *scanner) object(member func(key []byte) bool) bool {
	if !s.consume('{') {
		return false
	}
	if s.consume('}') {
		return true
	}
	for {
		k, ok := s.key()
		if !ok || !member(k) {
			return false
		}
		more, ok := s.more('}')
		if !ok || !more {
			return ok
		}
	}
}

// array decodes one array, calling elem for each element.
func (s *scanner) array(elem func() bool) bool {
	if !s.consume('[') {
		return false
	}
	if s.consume(']') {
		return true
	}
	for {
		if !elem() {
			return false
		}
		more, ok := s.more(']')
		if !ok || !more {
			return ok
		}
	}
}

// maxSkipDepth bounds the nesting of a skipped value; a deeper one is
// declined and left to encoding/json's own limit.
const maxSkipDepth = 32

// unknown handles a key that is not one of known's exact-case names.
// encoding/json matches keys to fields case-insensitively, so a key
// that folds to a known name (keys here are ASCII) is declined. Any
// other key's value must be valid JSON, which encoding/json checks and
// then discards: skip checks it and steps over it.
func (s *scanner) unknown(key []byte, known []string) bool {
	for _, k := range known {
		if bytes.EqualFold(key, []byte(k)) {
			return false
		}
	}
	return s.skip(0)
}

// skip steps over one value, reporting whether it is valid JSON
// within the scanner's narrower strings and maxSkipDepth.
func (s *scanner) skip(depth int) bool {
	s.skipSpace()
	if s.i >= len(s.b) {
		return false
	}
	switch s.b[s.i] {
	case '"':
		_, ok := s.token()
		return ok
	case '{':
		return depth < maxSkipDepth && s.object(func([]byte) bool { return s.skip(depth + 1) })
	case '[':
		return depth < maxSkipDepth && s.array(func() bool { return s.skip(depth + 1) })
	case 't':
		return s.literal("true")
	case 'f':
		return s.literal("false")
	case 'n':
		return s.literal("null")
	}
	_, ok := s.number()
	return ok
}

// literal consumes lit, which the caller has seen the first byte of.
func (s *scanner) literal(lit string) bool {
	if !bytes.HasPrefix(s.b[s.i:], []byte(lit)) {
		return false
	}
	s.i += len(lit)
	return true
}

// The exact-case keys record and snapshot decode; TestScannerKeys
// holds them to Record's and tcpinfo.Snapshot's json tags.
var (
	recordKeys   = []string{"id", "start", "duration", "access", "snapshots", "mean_throughput_bps", "truth_label"}
	snapshotKeys = []string{"at", "bytes_sent", "bytes_acked", "bytes_retrans", "throughput_bps", "srtt", "min_rtt", "cwnd", "lost_packets", "app_limited", "rwnd_limited", "busy_time"}
)

// record decodes the top-level object.
func (s *scanner) record(r *Record) bool {
	return s.object(func(key []byte) bool {
		switch string(key) {
		case "id":
			v, ok := s.str()
			r.ID = string(v)
			return ok
		case "start":
			tok, ok := s.token()
			return ok && r.Start.UnmarshalJSON(tok) == nil
		case "duration":
			return s.duration(&r.Duration)
		case "access":
			v, ok := s.str()
			r.Access = intern(v, knownAccess)
			return ok
		case "snapshots":
			return s.snapshots(r)
		case "mean_throughput_bps":
			return s.float(&r.MeanThroughputBps)
		case "truth_label":
			v, ok := s.str()
			r.TruthLabel = intern(v, knownLabels)
			return ok
		}
		return s.unknown(key, recordKeys)
	})
}

// snapshots decodes the snapshot array the way encoding/json decodes
// into a slice: element i lands on whatever r.Snapshots' backing array
// holds at i (zero after reset, or an earlier "snapshots" key's element
// in the same line), so omitted fields keep that value, and the slice
// is then cut to the elements read.
func (s *scanner) snapshots(r *Record) bool {
	snaps := r.Snapshots
	n := 0
	ok := s.array(func() bool {
		if n == cap(snaps) {
			snaps = append(snaps[:n], tcpinfo.Snapshot{})
		}
		snaps = snaps[:n+1]
		n++
		return s.snapshot(&snaps[n-1])
	})
	if !ok {
		return false
	}
	if n == 0 {
		// encoding/json swaps in a new empty slice here, so a later
		// "snapshots" key starts from zeroed elements: zero the
		// backing array instead of dropping it.
		clear(snaps[:cap(snaps)])
		if snaps == nil {
			snaps = []tcpinfo.Snapshot{}
		}
	}
	r.Snapshots = snaps[:n]
	return true
}

// snapshot decodes one element in place.
func (s *scanner) snapshot(p *tcpinfo.Snapshot) bool {
	return s.object(func(key []byte) bool {
		switch string(key) {
		case "at":
			return s.duration(&p.At)
		case "bytes_sent":
			return s.integer(&p.BytesSent)
		case "bytes_acked":
			return s.integer(&p.BytesAcked)
		case "bytes_retrans":
			return s.integer(&p.BytesRetrans)
		case "throughput_bps":
			return s.float(&p.ThroughputBps)
		case "srtt":
			return s.duration(&p.SRTT)
		case "min_rtt":
			return s.duration(&p.MinRTT)
		case "cwnd":
			var n int64
			ok := s.integer(&n)
			p.CWnd = int(n)
			return ok && int64(p.CWnd) == n // encoding/json's overflow check on 32-bit int
		case "lost_packets":
			return s.integer(&p.LostPackets)
		case "app_limited":
			return s.duration(&p.AppLimited)
		case "rwnd_limited":
			return s.duration(&p.RWndLimited)
		case "busy_time":
			return s.duration(&p.BusyTime)
		}
		return s.unknown(key, snapshotKeys)
	})
}

// Access types and labels decode to these constants, so decoding a
// known one allocates nothing.
var (
	knownAccess = []AccessType{AccessWifi, AccessEthernet, AccessCellular, AccessSat}
	knownLabels = []Label{LabelAppLimited, LabelRWndLimited, LabelCellular, LabelSteady, LabelContending, LabelPoliced, LabelShort}
)

// intern returns the member of known that equals v, or else a new
// string.
func intern[T ~string](v []byte, known []T) T {
	for _, k := range known {
		if string(k) == string(v) {
			return k
		}
	}
	return T(v)
}
