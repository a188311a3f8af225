package mlab

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"reflect"
	"testing"
	"time"
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
