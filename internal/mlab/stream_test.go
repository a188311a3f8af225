package mlab

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"maps"
	"reflect"
	"slices"
	"strings"
	"testing"
)

func genTestDataset(t *testing.T, flows int, seed int64) []Record {
	t.Helper()
	return Generate(GeneratorConfig{Flows: flows, Seed: seed})
}

// analyze runs the pipeline over an in-memory dataset on one worker,
// retaining per-flow results.
func analyze(t testing.TB, recs []Record, cfg AnalysisConfig) *Analysis {
	t.Helper()
	a, err := AnalyzeStream(&SliceSource{Recs: recs}, cfg, StreamOptions{Workers: 1, KeepResults: true})
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// encodeJSONL writes recs one per line through a JSONLWriter.
func encodeJSONL(t *testing.T, recs []Record) *bytes.Buffer {
	t.Helper()
	var buf bytes.Buffer
	jw := NewJSONLWriter(&buf, false)
	for i := range recs {
		if err := jw.Write(&recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := jw.Close(); err != nil {
		t.Fatal(err)
	}
	return &buf
}

// decodeJSONL drains a RecordStream over r into memory, one fresh
// Record per line.
func decodeJSONL(r io.Reader, lim StreamLimits) ([]Record, error) {
	s, err := NewRecordStream(r, lim)
	if err != nil {
		return nil, err
	}
	defer s.Close()
	var recs []Record
	for {
		var rec Record
		if err := s.Next(&rec); err != nil {
			if err == io.EOF {
				return recs, nil
			}
			return nil, err
		}
		recs = append(recs, rec)
	}
}

func TestRecordStreamRoundTrip(t *testing.T) {
	recs := genTestDataset(t, 50, 1)
	s, err := NewRecordStream(encodeJSONL(t, recs), StreamLimits{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var rec Record
	for i := range recs {
		if err := s.Next(&rec); err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if rec.ID != recs[i].ID || len(rec.Snapshots) != len(recs[i].Snapshots) {
			t.Fatalf("record %d: got %s/%d snapshots, want %s/%d",
				i, rec.ID, len(rec.Snapshots), recs[i].ID, len(recs[i].Snapshots))
		}
	}
	if err := s.Next(&rec); err != io.EOF {
		t.Fatalf("after last record: got %v, want io.EOF", err)
	}
	if s.Count() != len(recs) {
		t.Fatalf("Count() = %d, want %d", s.Count(), len(recs))
	}
}

func TestRecordStreamGzipAutodetect(t *testing.T) {
	recs := genTestDataset(t, 20, 2)
	plain := encodeJSONL(t, recs)
	var zipped bytes.Buffer
	gz := gzip.NewWriter(&zipped)
	if _, err := gz.Write(plain.Bytes()); err != nil {
		t.Fatal(err)
	}
	if err := gz.Close(); err != nil {
		t.Fatal(err)
	}

	got, err := decodeJSONL(&zipped, StreamLimits{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("gzip read returned %d records, want %d", len(got), len(recs))
	}
	for i := range got {
		if got[i].ID != recs[i].ID {
			t.Fatalf("record %d: ID %s, want %s", i, got[i].ID, recs[i].ID)
		}
	}
}

func TestJSONLWriterGzipRoundTrip(t *testing.T) {
	recs := genTestDataset(t, 20, 3)
	var buf bytes.Buffer
	jw := NewJSONLWriter(&buf, true)
	for i := range recs {
		if err := jw.Write(&recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := jw.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := decodeJSONL(&buf, StreamLimits{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("got %d records, want %d", len(got), len(recs))
	}
}

func TestRecordStreamTruncatedRecord(t *testing.T) {
	recs := genTestDataset(t, 3, 4)
	// Chop the final record mid-JSON.
	b := encodeJSONL(t, recs).Bytes()
	b = b[:len(b)-len(b)/8]
	_, err := decodeJSONL(bytes.NewReader(b), StreamLimits{})
	if err == nil {
		t.Fatal("truncated input decoded without error")
	}
	if !strings.Contains(err.Error(), "decoding record 2") {
		t.Fatalf("error %q does not name the failing record index 2", err)
	}
}

func TestRecordStreamLimits(t *testing.T) {
	recs := genTestDataset(t, 5, 5)
	data := encodeJSONL(t, recs).Bytes()

	_, err := decodeJSONL(bytes.NewReader(data), StreamLimits{MaxRecords: 3})
	if err == nil || !strings.Contains(err.Error(), "record 3 exceeds the 3-record limit") {
		t.Fatalf("MaxRecords violation: got %v", err)
	}

	_, err = decodeJSONL(bytes.NewReader(data), StreamLimits{MaxRecordBytes: 100})
	if err == nil || !strings.Contains(err.Error(), "line limit") {
		t.Fatalf("MaxRecordBytes violation: got %v", err)
	}

	got, err := decodeJSONL(bytes.NewReader(data), StreamLimits{MaxRecords: 5})
	if err != nil || len(got) != 5 {
		t.Fatalf("at-limit read: got %d records, err %v", len(got), err)
	}
}

// alternatingAppLimited is a hand-written NDT file of 40 flat 3 s
// flows in which every even line reports app_limited and every odd
// line omits the field, as a real NDT file may.
func alternatingAppLimited() []byte {
	var buf bytes.Buffer
	for i := 0; i < 40; i++ {
		fmt.Fprintf(&buf, `{"id":"f%d","duration":3000000000,"access":"wifi","snapshots":[`, i)
		for k := 1; k <= 30; k++ {
			if k > 1 {
				buf.WriteByte(',')
			}
			fmt.Fprintf(&buf, `{"at":%d,"throughput_bps":1e7`, k*100_000_000)
			if i%2 == 0 {
				fmt.Fprintf(&buf, `,"app_limited":%d`, k*50_000_000)
			}
			buf.WriteByte('}')
		}
		buf.WriteString("]}\n")
	}
	return buf.Bytes()
}

// TestRecordStreamClearsReusedSnapshots: a field a line omits must
// decode as zero, not as the value the previous record held at the
// same snapshot index of the reused backing array.
func TestRecordStreamClearsReusedSnapshots(t *testing.T) {
	data := alternatingAppLimited()
	s, err := NewRecordStream(bytes.NewReader(data), StreamLimits{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var rec Record
	for i := 0; i < 2; i++ {
		if err := s.Next(&rec); err != nil {
			t.Fatal(err)
		}
	}
	for k, snap := range rec.Snapshots {
		if snap.AppLimited != 0 {
			t.Fatalf("record 1 snapshot %d: AppLimited = %v, want 0 (leaked from record 0)", k, snap.AppLimited)
		}
	}

	want := map[Category]int{CatAppLimited: 20, CatStable: 20}
	for _, workers := range []int{1, 4} {
		s, err := NewRecordStream(bytes.NewReader(data), StreamLimits{})
		if err != nil {
			t.Fatal(err)
		}
		a, err := AnalyzeStream(s, AnalysisConfig{}, StreamOptions{Workers: workers})
		s.Close()
		if err != nil {
			t.Fatal(err)
		}
		if !maps.Equal(a.ByCat, want) {
			t.Errorf("workers=%d: ByCat = %v, want %v", workers, a.ByCat, want)
		}
	}
}

func TestRecordStreamBlankLines(t *testing.T) {
	recs := genTestDataset(t, 2, 6)
	var buf bytes.Buffer
	buf.WriteString("\n")
	buf.Write(encodeJSONL(t, recs).Bytes())
	buf.WriteString("\n\n")
	got, err := decodeJSONL(&buf, StreamLimits{})
	if err != nil || len(got) != 2 {
		t.Fatalf("blank-line input: got %d records, err %v", len(got), err)
	}
}

func reportString(t *testing.T, a *Analysis) string {
	t.Helper()
	var buf bytes.Buffer
	if err := a.WriteReport(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestAnalyzeStreamMatchesAnalyze: every worker count, and decoding
// in the pool from JSONL as much as reading records from memory,
// yields the single-worker in-memory report, validation and per-flow
// results in input order.
func TestAnalyzeStreamMatchesAnalyze(t *testing.T) {
	recs := genTestDataset(t, 400, 7)
	data := encodeJSONL(t, recs).Bytes()
	cfg := AnalysisConfig{}
	want := analyze(t, recs, cfg)
	opt := func(workers int) StreamOptions { return StreamOptions{Workers: workers, KeepResults: true} }

	for _, workers := range []int{1, 2, 8} {
		fromMem, err := AnalyzeStream(&SliceSource{Recs: recs}, cfg, opt(workers))
		if err != nil {
			t.Fatal(err)
		}
		s, err := NewRecordStream(bytes.NewReader(data), StreamLimits{})
		if err != nil {
			t.Fatal(err)
		}
		fromJSONL, err := AnalyzeStream(s, cfg, opt(workers))
		if err != nil {
			t.Fatal(err)
		}
		if s.Count() != len(recs) {
			t.Fatalf("workers=%d: stream Count() = %d, want %d", workers, s.Count(), len(recs))
		}
		for src, got := range map[string]*Analysis{"SliceSource": fromMem, "RecordStream": fromJSONL} {
			if rw, rg := reportString(t, want), reportString(t, got); rw != rg {
				t.Fatalf("%s workers=%d: report differs:\n--- want\n%s\n--- got\n%s", src, workers, rw, rg)
			}
			if got.Validate() != want.Validate() {
				t.Fatalf("%s workers=%d: validation %+v, want %+v", src, workers, got.Validate(), want.Validate())
			}
			if len(got.Results) != len(want.Results) {
				t.Fatalf("%s workers=%d: %d results, want %d", src, workers, len(got.Results), len(want.Results))
			}
			for i := range got.Results {
				if !reflect.DeepEqual(got.Results[i], want.Results[i]) {
					t.Fatalf("%s workers=%d: result %d = %+v, want %+v (results must be in input order)",
						src, workers, i, got.Results[i], want.Results[i])
				}
			}
		}
	}
}

// TestAnalyzeStreamAggregateDeterministic is the aggregate-mode
// (KeepResults unset, the literal the ledger and mlabanalyze pass)
// worker-invariance test, exact shift-magnitude CDF included.
func TestAnalyzeStreamAggregateDeterministic(t *testing.T) {
	recs := genTestDataset(t, 400, 8)
	cfg := AnalysisConfig{}
	var first string
	for _, workers := range []int{1, 4, 8} {
		a, err := AnalyzeStream(&SliceSource{Recs: recs}, cfg, StreamOptions{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if a.Results != nil {
			t.Fatalf("workers=%d: aggregate mode retained %d results", workers, len(a.Results))
		}
		r := reportString(t, a)
		if !strings.Contains(r, "\nshift magnitude CDF: CDF(") {
			t.Fatalf("workers=%d: report has no exact shift-magnitude CDF line:\n%s", workers, r)
		}
		if first == "" {
			first = r
		} else if r != first {
			t.Fatalf("workers=%d: aggregate report differs from workers=1:\n%s\nvs\n%s", workers, r, first)
		}
	}
}

// TestAnalyzeStreamPropagatesSourceError: on bad input AnalyzeStream
// returns, for every worker count, exactly the error a sequential Next
// loop (decodeJSONL's) meets first, and leaves the stream where that
// loop would.
func TestAnalyzeStreamPropagatesSourceError(t *testing.T) {
	recs := genTestDataset(t, 10, 10)
	lines := bytes.SplitAfter(encodeJSONL(t, recs).Bytes(), []byte("\n"))
	lines = lines[:len(recs)]
	longest := 0
	for _, l := range lines {
		longest = max(longest, len(l))
	}
	// join rebuilds the stream with record overLimit padded past the
	// longest record (over the line limit) and the malformed records
	// truncated.
	join := func(overLimit int, malformed ...int) []byte {
		var b bytes.Buffer
		for i, l := range lines {
			switch {
			case slices.Contains(malformed, i):
				b.Write(l[:len(l)/2])
				b.WriteByte('\n')
			case i == overLimit:
				b.Write(bytes.Repeat([]byte(" "), longest))
				b.Write(l)
			default:
				b.Write(l)
			}
		}
		return b.Bytes()
	}
	whole := join(-1)
	for _, tc := range []struct {
		name string
		data []byte
		lim  StreamLimits
		want string
	}{
		{"truncated", whole[:len(whole)/2], StreamLimits{}, "decoding record"},
		{"malformed-3-over-6", join(6, 3), StreamLimits{MaxRecordBytes: longest}, "decoding record 3"},
		{"over-3-malformed-6", join(3, 6), StreamLimits{MaxRecordBytes: longest}, "record 3 exceeds the"},
		{"over-6", join(6), StreamLimits{MaxRecordBytes: longest}, "record 6 exceeds the"},
		{"malformed-3-to-8", join(-1, 3, 4, 5, 6, 7, 8), StreamLimits{}, "decoding record 3"},
		{"malformed-3-max-5", join(-1, 3), StreamLimits{MaxRecords: 5}, "decoding record 3"},
		{"malformed-3-max-3", join(-1, 3), StreamLimits{MaxRecords: 3}, "record 3 exceeds the 3-record limit"},
		{"malformed-7-max-5", join(-1, 7), StreamLimits{MaxRecords: 5}, "record 5 exceeds the 5-record limit"},
	} {
		seq, err := NewRecordStream(bytes.NewReader(tc.data), tc.lim)
		if err != nil {
			t.Fatal(err)
		}
		var rec Record
		for err == nil {
			err = seq.Next(&rec)
		}
		if err == io.EOF || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: sequential Next: got %v, want an error containing %q", tc.name, err, tc.want)
		}
		for _, workers := range []int{1, 2, 8} {
			s, serr := NewRecordStream(bytes.NewReader(tc.data), tc.lim)
			if serr != nil {
				t.Fatal(serr)
			}
			_, got := AnalyzeStream(s, AnalysisConfig{}, StreamOptions{Workers: workers})
			if got == nil || got.Error() != err.Error() {
				t.Fatalf("%s workers=%d: got %v, want %v", tc.name, workers, got, err)
			}
			if s.Count() != seq.Count() {
				t.Fatalf("%s workers=%d: stream Count() = %d, want %d", tc.name, workers, s.Count(), seq.Count())
			}
			if again, want := s.Next(&rec), seq.Next(&rec); again == nil || again.Error() != want.Error() {
				t.Fatalf("%s workers=%d: Next after the failure: got %v, want %v", tc.name, workers, again, want)
			}
		}
	}
}

// TestRecordStreamLineCapExcludesTerminator: MaxRecordBytes caps the
// record, not its line terminator, so a record exactly at the cap is
// read whatever ends its line, and one byte more fails on every
// ending.
func TestRecordStreamLineCapExcludesTerminator(t *testing.T) {
	const limit = 48
	rec := func(n int) string {
		r := `{"id":"","duration":3000000000,"access":"wifi"}`
		return r[:7] + strings.Repeat("x", n-len(r)) + r[7:]
	}
	for _, ending := range []string{"", "\n", "\r\n"} {
		for _, n := range []int{limit, limit + 1} {
			got, err := decodeJSONL(strings.NewReader(rec(n)+ending), StreamLimits{MaxRecordBytes: limit})
			if n <= limit && (err != nil || len(got) != 1) {
				t.Errorf("%d-byte record ending %q: got %d records, err %v; want it read", n, ending, len(got), err)
			}
			want := fmt.Sprintf("mlab: record 0 exceeds the %d-byte line limit", limit)
			if n > limit && (err == nil || err.Error() != want) {
				t.Errorf("%d-byte record ending %q: got err %v, want %q", n, ending, err, want)
			}
		}
	}
}

func TestGenSourceMatchesGenerate(t *testing.T) {
	cfg := GeneratorConfig{Flows: 200, Seed: 11}
	want := Generate(cfg)
	src := NewGenSource(cfg)
	var rec Record
	for i := range want {
		if err := src.Next(&rec); err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if rec.ID != want[i].ID || rec.MeanThroughputBps != want[i].MeanThroughputBps ||
			rec.TruthLabel != want[i].TruthLabel || len(rec.Snapshots) != len(want[i].Snapshots) {
			t.Fatalf("record %d: streamed record differs from Generate's", i)
		}
	}
	if err := src.Next(&rec); err != io.EOF {
		t.Fatalf("after last record: got %v, want io.EOF", err)
	}
}

func TestGenerateJSONLSequentialMatchesWriteJSONL(t *testing.T) {
	cfg := GeneratorConfig{Flows: 150, Seed: 12}
	want := encodeJSONL(t, Generate(cfg))
	var got bytes.Buffer
	stats, err := GenerateJSONL(&got, cfg, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Records != 150 {
		t.Fatalf("stats.Records = %d, want 150", stats.Records)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatal("streamed legacy-mode output differs from Generate + JSONLWriter")
	}
}

func TestGenerateJSONLShardedDeterministic(t *testing.T) {
	cfg := GeneratorConfig{Flows: 500, Seed: 13, ShardSize: 64}
	var seq bytes.Buffer
	seqStats, err := GenerateJSONL(&seq, cfg, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 8} {
		var par bytes.Buffer
		parStats, err := GenerateJSONL(&par, cfg, workers, false)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(par.Bytes(), seq.Bytes()) {
			t.Fatalf("workers=%d: sharded output differs from sequential", workers)
		}
		if parStats.Records != seqStats.Records {
			t.Fatalf("workers=%d: %d records, want %d", workers, parStats.Records, seqStats.Records)
		}
		for l, n := range seqStats.ByLabel {
			if parStats.ByLabel[l] != n {
				t.Fatalf("workers=%d: label %s count %d, want %d", workers, l, parStats.ByLabel[l], n)
			}
		}
	}
}

func TestGenerateJSONLShardedGzip(t *testing.T) {
	cfg := GeneratorConfig{Flows: 200, Seed: 14, ShardSize: 32}
	var plain, zipped bytes.Buffer
	if _, err := GenerateJSONL(&plain, cfg, 4, false); err != nil {
		t.Fatal(err)
	}
	if _, err := GenerateJSONL(&zipped, cfg, 4, true); err != nil {
		t.Fatal(err)
	}
	gz, err := gzip.NewReader(&zipped)
	if err != nil {
		t.Fatal(err)
	}
	unzipped, err := io.ReadAll(gz)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(unzipped, plain.Bytes()) {
		t.Fatal("gzipped sharded output does not decompress to the plain output")
	}
}

func TestGenerateShardedViaGenSource(t *testing.T) {
	// A single GenSource over a sharded config must agree with the
	// parallel sharded writer (it reseeds at every shard boundary).
	cfg := GeneratorConfig{Flows: 130, Seed: 15, ShardSize: 40}
	var want bytes.Buffer
	if _, err := GenerateJSONL(&want, cfg, 4, false); err != nil {
		t.Fatal(err)
	}
	src := NewGenSource(cfg)
	var got bytes.Buffer
	jw := NewJSONLWriter(&got, false)
	var rec Record
	for {
		if err := src.Next(&rec); err != nil {
			if err != io.EOF {
				t.Fatal(err)
			}
			break
		}
		if err := jw.Write(&rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := jw.Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatal("sequential sharded GenSource output differs from GenerateJSONL")
	}
}

func TestAnalyzeStreamZeroAllocSteadyState(t *testing.T) {
	recs := genTestDataset(t, 64, 16)
	src := &SliceSource{Recs: recs}
	var sc scratch
	var rec Record
	// Warm up the scratch on the largest flows.
	for i := 0; i < len(recs); i++ {
		rec = recs[i]
		analyzeInto(&rec, &sc)
	}
	src.i = 0
	i := 0
	allocs := testing.AllocsPerRun(60, func() {
		rec = recs[i%len(recs)]
		analyzeInto(&rec, &sc)
		i++
	})
	if allocs != 0 {
		t.Errorf("analyzeInto allocates %.1f objects per flow after warmup, want 0", allocs)
	}
}

func TestWriteReportReturnsWriterError(t *testing.T) {
	recs := genTestDataset(t, 100, 17)
	a := analyze(t, recs, AnalysisConfig{})
	if err := a.WriteReport(failingWriter{}); err == nil {
		t.Fatal("WriteReport swallowed the writer error")
	}
}

type failingWriter struct{}

func (failingWriter) Write(p []byte) (int, error) { return 0, fmt.Errorf("disk full") }
