package mlab

import (
	"bytes"
	"compress/gzip"
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
	cfg := GeneratorConfig{Flows: 3, Seed: 1, SnapshotInterval: 2 * time.Second}
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
	cfg := AnalysisConfig{}.norm()
	opt := StreamOptions{KeepResults: true}
	var p partial
	var sc scratch
	var rec Record
	for idx := 0; ; idx++ {
		if err := s.Next(&rec); err != nil {
			if err != io.EOF {
				return nil, err
			}
			return mergePartials([]*partial{&p}, cfg, opt), nil
		}
		res := analyzeInto(&rec, cfg, &sc)
		p.add(&res, idx, opt)
	}
}
