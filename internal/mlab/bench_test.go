package mlab

import (
	"bytes"
	"io"
	"runtime"
	"sync"
	"testing"
)

const benchFlows = 2000

var benchDataset = sync.OnceValue(func() []Record {
	return Generate(GeneratorConfig{Flows: benchFlows, Seed: 1})
})

func benchAnalyze(b *testing.B, workers int) {
	recs := benchDataset()
	cfg := AnalysisConfig{}
	b.ReportAllocs()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a, err := AnalyzeStream(&SliceSource{Recs: recs}, cfg, StreamOptions{Workers: workers})
		if err != nil {
			b.Fatal(err)
		}
		if a.Total != benchFlows {
			b.Fatalf("analyzed %d flows, want %d", a.Total, benchFlows)
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&ms1)
	allocsPerFlow := float64(ms1.Mallocs-ms0.Mallocs) / float64(b.N) / benchFlows
	b.ReportMetric(allocsPerFlow, "allocs/flow")
}

// BenchmarkMLabAnalyzeSeq is the single-worker pipeline over records
// already in memory (no decoding): the per-flow analysis cost the
// parallel version divides across cores, and the source of the
// allocs/flow figure (steady-state analysis is zero-alloc per flow;
// the residue is fixed per-run setup).
func BenchmarkMLabAnalyzeSeq(b *testing.B) { benchAnalyze(b, 1) }

// BenchmarkMLabAnalyzePar8 is the same in-memory pipeline on 8
// workers; on a machine with >= 8 cores it must be >= 4x
// BenchmarkMLabAnalyzeSeq.
func BenchmarkMLabAnalyzePar8(b *testing.B) { benchAnalyze(b, 8) }

var benchJSONL = sync.OnceValue(func() []byte {
	var buf bytes.Buffer
	if _, err := GenerateJSONL(&buf, GeneratorConfig{Flows: benchFlows, Seed: 1}, 1, false); err != nil {
		panic(err)
	}
	return buf.Bytes()
})

// benchPipeline runs what mlabanalyze runs: JSONL bytes through a
// RecordStream into AnalyzeStream, so decoding is in the measurement.
func benchPipeline(b *testing.B, workers int) {
	data := benchJSONL()
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src, err := NewRecordStream(bytes.NewReader(data), StreamLimits{})
		if err != nil {
			b.Fatal(err)
		}
		a, err := AnalyzeStream(src, AnalysisConfig{}, StreamOptions{Workers: workers})
		if err != nil {
			b.Fatal(err)
		}
		if a.Total != benchFlows {
			b.Fatalf("analyzed %d flows, want %d", a.Total, benchFlows)
		}
	}
}

// BenchmarkMLabPipelineSeq decodes and analyses on one worker: the
// end-to-end cost per dataset, decode included.
func BenchmarkMLabPipelineSeq(b *testing.B) { benchPipeline(b, 1) }

// BenchmarkMLabPipelinePar is the same on 8 workers. Decoding runs in
// the pool, so it scales with cores like BenchmarkMLabAnalyzePar8;
// only line framing stays on the reading goroutine.
func BenchmarkMLabPipelinePar(b *testing.B) { benchPipeline(b, 8) }

// BenchmarkDecodeRecord is the decode layer alone: every line of the
// pipeline benchmarks' dataset through decodeRecord into one reused
// record, with no framing and no analysis. Its MB/s sits beside
// BenchmarkMLabPipelineSeq's; allocs/flow is the ID string.
func BenchmarkDecodeRecord(b *testing.B) {
	data := benchJSONL()
	lines := bytes.Split(bytes.TrimSuffix(data, []byte("\n")), []byte("\n"))
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	var rec Record
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for idx, line := range lines {
			if err := decodeRecord(line, &rec, idx); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&ms1)
	b.ReportMetric(float64(ms1.Mallocs-ms0.Mallocs)/float64(b.N)/float64(len(lines)), "allocs/flow")
}

// BenchmarkEncodeRecord is the encode layer alone, the inverse of
// BenchmarkDecodeRecord: the pipeline benchmarks' records, already in
// memory, each appended through encodeRecord into one reused line
// buffer, with no generation and no writer. Its MB/s counts the bytes
// written; allocs/flow is 0 once the buffer has grown.
func BenchmarkEncodeRecord(b *testing.B) {
	recs := benchDataset()
	var line []byte
	size := 0
	for i := range recs {
		var err error
		if line, err = encodeRecord(line[:0], &recs[i]); err != nil {
			b.Fatal(err)
		}
		size += len(line)
	}
	b.SetBytes(int64(size))
	b.ReportAllocs()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range recs {
			var err error
			if line, err = encodeRecord(line[:0], &recs[j]); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&ms1)
	b.ReportMetric(float64(ms1.Mallocs-ms0.Mallocs)/float64(b.N)/float64(len(recs)), "allocs/flow")
}

// BenchmarkMLabAnalyzeStoreAll is the historical store-everything
// path (per-flow results + exact CDF), kept as the memory/alloc
// comparison point for the streaming aggregate mode.
func BenchmarkMLabAnalyzeStoreAll(b *testing.B) {
	recs := benchDataset()
	cfg := AnalysisConfig{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := analyze(b, recs, cfg)
		if a.Total != benchFlows {
			b.Fatalf("analyzed %d flows, want %d", a.Total, benchFlows)
		}
	}
}

// BenchmarkMLabGenerate streams record generation alone (the GenSource
// path both Generate and GenerateJSONL run on), one reused record at a
// time, with no encoding: writing the dataset, as mlabgen and the
// ledger's mlab-pipeline set-up do, adds BenchmarkEncodeRecord's cost
// per record, which is most of the total.
func BenchmarkMLabGenerate(b *testing.B) {
	cfg := GeneratorConfig{Flows: benchFlows, Seed: 1}
	b.ReportAllocs()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src := NewGenSource(cfg)
		var rec Record
		n := 0
		for {
			if err := src.Next(&rec); err != nil {
				if err != io.EOF {
					b.Fatal(err)
				}
				break
			}
			n++
		}
		if n != benchFlows {
			b.Fatalf("generated %d flows, want %d", n, benchFlows)
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&ms1)
	b.ReportMetric(float64(ms1.Mallocs-ms0.Mallocs)/float64(b.N)/benchFlows, "allocs/flow")
}
