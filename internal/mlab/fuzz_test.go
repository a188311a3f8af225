package mlab

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"reflect"
	"testing"
	"time"

	"repro/internal/tcpinfo"
)

// FuzzRecordStream feeds arbitrary bytes under small stream limits to a
// sequential Next + analyzeInto pass and to AnalyzeStream at 1 and 4
// workers, which frame on the reading goroutine and decode in the pool.
// All three must fail with the same error text or produce the same
// report, validation counts and per-flow results.
func FuzzRecordStream(f *testing.F) {
	// Seeds stay a few KB: the fuzzer minimises each input that finds
	// new coverage, in time quadratic in its length. Five snapshots a
	// flow keep a generated line near 1.5 KB.
	var gen bytes.Buffer
	cfg := GeneratorConfig{Flows: 3, Seed: 1, snapshotInterval: 2 * time.Second}
	if _, err := GenerateJSONL(&gen, cfg, 1, false); err != nil {
		f.Fatal(err)
	}
	lines := gen.Bytes()
	var zipped bytes.Buffer
	gz := gzip.NewWriter(&zipped)
	if _, err := gz.Write(lines); err != nil {
		f.Fatal(err)
	}
	if err := gz.Close(); err != nil {
		f.Fatal(err)
	}
	first := lines[:bytes.IndexByte(lines, '\n')+1]
	crlf := append([]byte("\r\n"), bytes.ReplaceAll(lines, []byte("\n"), []byte("\r\n\r\n"))...)

	f.Add(lines, uint8(0), uint16(0))
	f.Add(lines, uint8(3), uint16(0))
	f.Add(lines[:len(lines)-len(lines)/5], uint8(0), uint16(0))
	f.Add(crlf, uint8(0), uint16(len(first)-1))
	f.Add([]byte("\n\n \n"), uint8(1), uint16(8))
	f.Add(zipped.Bytes(), uint8(0), uint16(0))
	f.Add(zipped.Bytes()[:10], uint8(0), uint16(0))
	// A 24-snapshot flow whose throughput halves midway: the smallest
	// line that reaches PELT and comes out a level shift.
	var shift bytes.Buffer
	shift.WriteString(`{"id":"s","duration":3000000000,"access":"wifi","snapshots":[`)
	for k := 1; k <= 24; k++ {
		if k > 1 {
			shift.WriteByte(',')
		}
		fmt.Fprintf(&shift, `{"at":%d,"throughput_bps":%d}`, k*100_000_000, 10_000_000>>(k/13))
	}
	shift.WriteString("]}\n")
	f.Add(shift.Bytes(), uint8(0), uint16(0))
	f.Add(append(shift.Bytes(), first...), uint8(2), uint16(0))
	// The first four lines of alternatingAppLimited: app_limited
	// reported, omitted, reported, omitted.
	alternating := bytes.Join(bytes.SplitAfterN(alternatingAppLimited(), []byte("\n"), 5)[:4], nil)
	f.Add(alternating, uint8(3), uint16(2048))
	f.Add(alternating, uint8(0), uint16(64))

	f.Fuzz(func(t *testing.T, data []byte, maxRecords uint8, maxRecordBytes uint16) {
		lim := StreamLimits{MaxRecords: int(maxRecords), MaxRecordBytes: int(maxRecordBytes)}
		if _, err := NewRecordStream(bytes.NewReader(data), lim); err != nil {
			return // no record was read: nothing for the paths to disagree on
		}
		want, wantErr := sequentialAnalysis(data, lim)
		for _, workers := range []int{1, 4} {
			s, err := NewRecordStream(bytes.NewReader(data), lim)
			if err != nil {
				t.Fatal(err)
			}
			got, err := AnalyzeStream(s, AnalysisConfig{}, StreamOptions{Workers: workers, KeepResults: true})
			s.Close()
			if wantErr != nil || err != nil {
				if wantErr == nil || err == nil || err.Error() != wantErr.Error() {
					t.Fatalf("workers=%d: error %v, sequential error %v", workers, err, wantErr)
				}
				continue
			}
			if rw, rg := reportString(t, want), reportString(t, got); rw != rg {
				t.Fatalf("workers=%d: report differs:\n--- sequential\n%s\n--- pool\n%s", workers, rw, rg)
			}
			if got.Validate() != want.Validate() {
				t.Fatalf("workers=%d: validation %+v, sequential %+v", workers, got.Validate(), want.Validate())
			}
			if !reflect.DeepEqual(got.Results, want.Results) {
				t.Fatalf("workers=%d: per-flow results differ from the sequential pass", workers)
			}
		}
	})
}

// sequentialAnalysis is the reference the pool is held to: one Next
// at a time on one record, each analysed before the next is read.
func sequentialAnalysis(data []byte, lim StreamLimits) (*Analysis, error) {
	s, err := NewRecordStream(bytes.NewReader(data), lim)
	if err != nil {
		return nil, err
	}
	defer s.Close()
	opt := StreamOptions{KeepResults: true}
	var p partial
	var sc scratch
	var rec Record
	for idx := 0; ; idx++ {
		if err := s.Next(&rec); err != nil {
			if err != io.EOF {
				return nil, err
			}
			return mergePartials([]*partial{&p}, opt), nil
		}
		res := analyzeInto(&rec, &sc)
		p.add(&res, idx, opt)
	}
}

// FuzzDecodeRecord holds decodeRecord, hand scanner and fallback
// together, to encoding/json. It decodes a and then b into one reused
// Record, and each line alone into a zero Record with json.Unmarshal;
// the two must fail with the same error text or give deeply equal
// records. A nil and an empty Snapshots count as equal: which of the
// two a reused record holds depended on its history under
// encoding/json alone too.
func FuzzDecodeRecord(f *testing.F) {
	// Seeds stay a few hundred bytes to a few KB, as in
	// FuzzRecordStream: minimisation is quadratic in input length.
	var gen bytes.Buffer
	cfg := GeneratorConfig{Flows: 1, Seed: 1, snapshotInterval: 2 * time.Second}
	if _, err := GenerateJSONL(&gen, cfg, 1, false); err != nil {
		f.Fatal(err)
	}
	line := bytes.TrimSpace(gen.Bytes())
	f.Add(line, line[:len(line)/2])
	f.Add(line[:len(line)/2], line)
	for _, c := range [][2]string{
		{`{"ID":"x","Snapshots":[{"AT":1}]}`, `{"id":"x"}`},
		{`{"\u017fnapshots":[{"at":1}],"ſnapshots":[{"at":2}]}`, `{"snapshots":[{"at":3}]}`},
		{`{"snapshots":[{"at":1,"srtt":2},{"at":3,"cwnd":4}],"snapshots":[{"srtt":5}],"snapshots":[{"at":6},{"min_rtt":7},{}]}`, `{"snapshots":[{"at":8}]}`},
		{`{"snapshots":[{"at":1},{"srtt":2}],"snapshots":[],"snapshots":[{"cwnd":3},{}]}`, `{"snapshots":[]}`},
		{`{"snapshots":[]`, `null`},
		{`{"id":null,"start":null,"snapshots":[null,{"at":1},null]}`, `{"snapshots":null}`},
		{`{"mean_throughput_bps":1e400}`, `{"snapshots":[{"throughput_bps":-0,"at":-0}],"duration":-0}`},
		{`{"duration":1.0}`, `{"snapshots":[{"bytes_sent":1e3}]}`},
		{`{"id":"a","start":"2023-06-01T00:00:00+02:00"} x`, `{"id":"b"}{}`},
		{`{"id":"b\u00e9\n","access":"wi\u0066i"}`, "{\"id\":\"\xff\",\"truth_label\":\"st\xc3\xa9ady\"}"},
		{`{"x":[[[[{"y":[[[{"z":{}}]]]}]]]],"id":"a","access":"wifi"}`, ` {"access" : "wifi" ,"truth_label":"steady"}` + "\t"},
		{`{"id":"a","snapshots":[{"at":1,"rtt_var":[2,-3e1]}],"probe":{"session":"2a","addr":"[::1]:1","packets":10,"ok":true,"x":null}}`, `{"probe":{"session":tru},"id":"b"}`},
		{`{"Probe":[],"ID":"c","probe":{"a":[1,]}}`, `{"probe":"\u0041","snapshots":[{"Srtt":1}]}`},
	} {
		f.Add([]byte(c[0]), []byte(c[1]))
	}

	f.Fuzz(func(t *testing.T, a, b []byte) {
		var rec Record
		for i, line := range [][]byte{a, b} {
			err := decodeRecord(line, &rec, i)
			var want Record
			if wantErr := json.Unmarshal(line, &want); wantErr != nil {
				wantText := fmt.Sprintf("mlab: decoding record %d: %v", i, wantErr)
				if err == nil || err.Error() != wantText {
					t.Fatalf("line %d: error %v, encoding/json: %s", i, err, wantText)
				}
			} else if err != nil {
				t.Fatalf("line %d: error %v, encoding/json decodes it", i, err)
			}
			got := rec
			if len(got.Snapshots) == 0 {
				got.Snapshots = nil
			}
			if len(want.Snapshots) == 0 {
				want.Snapshots = nil
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("line %d: decoded %+v, encoding/json %+v", i, got, want)
			}
		}
	})
}

// FuzzAppendRecord holds appendRecord to json.Encoder. For any record
// (arbitrary strings, float bits including NaN, ±Inf and subnormals,
// durations, start times and zone offsets, nil or empty snapshots) it
// must write exactly encoding/json's line after the bytes already in
// its buffer, or decline. Either way JSONLWriter.Write must write
// encoding/json's line or fail with encoding/json's error text. A line
// it writes must decode back to the record, through the scanner itself
// unless Snapshots is nil (the scanner leaves "null" to encoding/json).
func FuzzAppendRecord(f *testing.F) {
	src := NewGenSource(GeneratorConfig{Flows: 1, Seed: 1, snapshotInterval: 2 * time.Second})
	var gen Record
	if err := src.Next(&gen); err != nil {
		f.Fatal(err)
	}
	_, zone := gen.Start.Zone()
	f.Add(gen.ID, string(gen.Access), string(gen.TruthLabel), gen.Start.Unix(), int64(gen.Start.Nanosecond()), int32(zone),
		int64(gen.Duration), math.Float64bits(gen.MeanThroughputBps), snapshotBits(gen.Snapshots), false)
	day := time.Date(2023, 6, 1, 12, 0, 0, 0, time.UTC).Unix()
	five := snapshotBits(make([]tcpinfo.Snapshot, 5))
	for _, c := range []struct {
		id, access, label string
		sec, nsec         int64
		zone              int32
		mean              float64
		snaps             []byte
		nilSnaps          bool
	}{
		{"a", "wifi", "", day, 1, 0, 0, nil, true},
		{"a", "wifi", "steady", day, 999_999_999, 23*3600 + 59*60, math.Copysign(0, -1), nil, false},
		{"a.b-c_d", "cellular", "short", day, 0, -5 * 3600, 1e-7, five, false},
		{"\x7f", "wifi", "app-limited", day, 0, 30, 5e-324, five, false},
		{"~", "wifi", "rwnd-limited", day, 0, -30, 1e21, nil, false},
		{"y", "ethernet", "policed", -62167219200 - 1, 0, 0, 123.456, five, false},
		{"y", "ethernet", "policed", 253402300800, 0, 0, 1e20, five, false},
		{"z", "satellite", "steady", day, 0, 24 * 3600, -1e-6, five, false},
		{"z", "satellite", "steady", day, 0, -100 * 3600, 9.99e-7, five, false},
		{"n", "wifi", "steady", day, 0, 0, math.NaN(), five, false},
		{"i", "wifi", "steady", day, 0, 0, math.Inf(-1), five, false},
	} {
		f.Add(c.id, c.access, c.label, c.sec, c.nsec, c.zone, int64(3e9), math.Float64bits(c.mean), c.snaps, c.nilSnaps)
	}
	// One seed per byte class encoding/json escapes or checks, each in
	// an otherwise plain record, so every decline rule is exercised alone.
	for _, v := range []string{"<", ">", "&", "\"", "\\", "\x00", "\n", "\x1f", "é", "\xff", "\u2028"} {
		f.Add("x"+v, "wifi", "steady", day, int64(0), int32(0), int64(0), uint64(0), five, false)
		f.Add("x", v, "", day, int64(0), int32(0), int64(0), uint64(0), five, false)
	}
	// A NaN throughput in the first snapshot (the fifth field).
	nan := binary.LittleEndian.AppendUint64(five[:32:32], 0x7ff8000000000001)
	f.Add("s", "wifi", "steady", day, int64(0), int32(0), int64(-1), uint64(0), nan, false)

	f.Fuzz(func(t *testing.T, id, access, label string, sec, nsec int64, zone int32, dur int64, mean uint64, snaps []byte, nilSnaps bool) {
		rec := Record{
			ID:                id,
			Start:             time.Unix(sec, nsec).In(time.FixedZone("", int(zone))),
			Duration:          time.Duration(dur),
			Access:            AccessType(access),
			MeanThroughputBps: math.Float64frombits(mean),
			TruthLabel:        Label(label),
		}
		if !nilSnaps {
			rec.Snapshots = snapshotsFromBits(snaps)
		}
		var want bytes.Buffer
		wantErr := json.NewEncoder(&want).Encode(&rec)

		got, ok := appendRecord([]byte("prefix"), &rec)
		if ok {
			if wantErr != nil {
				t.Fatalf("appendRecord wrote %q; encoding/json fails: %v", got, wantErr)
			}
			if !bytes.HasPrefix(got, []byte("prefix")) || !bytes.Equal(got[len("prefix"):], want.Bytes()) {
				t.Fatalf("appendRecord wrote\n%q\nencoding/json\n%q", got, want.Bytes())
			}
			line := bytes.TrimSuffix(got[len("prefix"):], []byte("\n"))
			var dec Record
			if rec.Snapshots != nil && !scanRecord(line, &dec) {
				t.Fatalf("the scanner declined a line appendRecord wrote: %q", line)
			}
			if err := decodeRecord(line, &dec, 0); err != nil {
				t.Fatal(err)
			}
			if !sameRecord(&dec, &rec) {
				t.Fatalf("line %q decoded to %+v, want %+v", line, dec, rec)
			}
		}

		var out bytes.Buffer
		jw := NewJSONLWriter(&out, false)
		err := jw.Write(&rec)
		if cerr := jw.Close(); cerr != nil {
			t.Fatal(cerr)
		}
		if wantErr != nil {
			if wantText := "mlab: encoding record 0: " + wantErr.Error(); err == nil || err.Error() != wantText {
				t.Fatalf("Write error %v, encoding/json: %s", err, wantText)
			}
			return
		}
		if err != nil {
			t.Fatalf("Write error %v, encoding/json writes the record", err)
		}
		if !bytes.Equal(out.Bytes(), want.Bytes()) {
			t.Fatalf("Write wrote\n%q\nencoding/json\n%q", out.Bytes(), want.Bytes())
		}
	})
}

// snapshotBits and snapshotsFromBits map snapshots to and from the
// fuzzer's bytes: 8 little-endian bytes a field in field order, the
// throughput as float bits, and a trailing partial field dropped.
func snapshotBits(snaps []tcpinfo.Snapshot) []byte {
	var b []byte
	for _, p := range snaps {
		for _, v := range []uint64{uint64(p.At), uint64(p.BytesSent), uint64(p.BytesAcked), uint64(p.BytesRetrans),
			math.Float64bits(p.ThroughputBps), uint64(p.SRTT), uint64(p.MinRTT), uint64(p.CWnd),
			uint64(p.LostPackets), uint64(p.AppLimited), uint64(p.RWndLimited), uint64(p.BusyTime)} {
			b = binary.LittleEndian.AppendUint64(b, v)
		}
	}
	return b
}

func snapshotsFromBits(b []byte) []tcpinfo.Snapshot {
	snaps := []tcpinfo.Snapshot{}
	for k := 0; 8*k+8 <= len(b); k++ {
		if k%12 == 0 {
			snaps = append(snaps, tcpinfo.Snapshot{})
		}
		v := binary.LittleEndian.Uint64(b[8*k:])
		p := &snaps[len(snaps)-1]
		switch k % 12 {
		case 0:
			p.At = time.Duration(v)
		case 1:
			p.BytesSent = int64(v)
		case 2:
			p.BytesAcked = int64(v)
		case 3:
			p.BytesRetrans = int64(v)
		case 4:
			p.ThroughputBps = math.Float64frombits(v)
		case 5:
			p.SRTT = time.Duration(v)
		case 6:
			p.MinRTT = time.Duration(v)
		case 7:
			p.CWnd = int(v)
		case 8:
			p.LostPackets = int64(v)
		case 9:
			p.AppLimited = time.Duration(v)
		case 10:
			p.RWndLimited = time.Duration(v)
		case 11:
			p.BusyTime = time.Duration(v)
		}
	}
	return snaps
}

// sameRecord reports whether a decoded record is the record that was
// encoded. RFC 3339 keeps a start time's instant only to the zone
// offset's whole minutes, so Start is compared as the instant its own
// line names; nil and empty Snapshots both decode as no snapshots.
func sameRecord(dec, rec *Record) bool {
	start, err := time.Parse(time.RFC3339Nano, rec.Start.Format(time.RFC3339Nano))
	if err != nil || !dec.Start.Equal(start) {
		return false
	}
	a, b := *dec, *rec
	a.Start, b.Start = time.Time{}, time.Time{}
	if len(a.Snapshots) == 0 && len(b.Snapshots) == 0 {
		a.Snapshots, b.Snapshots = nil, nil
	}
	return reflect.DeepEqual(a, b)
}
