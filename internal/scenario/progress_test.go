package scenario

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
)

func init() {
	Register(Experiment{
		Name:        "test-trace-fail",
		Description: "test: emits trace events then errors",
		Run: func(ctx context.Context, sp Spec, sc *obs.Scope) (any, error) {
			for i := 0; i < 5; i++ {
				sc.Emit(obs.Event{
					At: time.Duration(i) * time.Millisecond, Type: obs.EvSend,
					Src: "test", Seq: int64(i), V1: 1200,
				})
			}
			sc.Emit(obs.Event{At: 5 * time.Millisecond, Type: obs.EvState, Src: "test", Note: "dying"})
			return nil, errors.New("traced failure")
		},
	})
	Register(Experiment{
		Name:        "test-panic",
		Description: "test: panics mid-run",
		Run: func(ctx context.Context, sp Spec, sc *obs.Scope) (any, error) {
			panic("kaboom")
		},
	})
}

// mixedSpecs is the canonical progress-test sweep: 6 successes, 2
// failures, across enough specs to exercise a 4-worker pool.
func mixedSpecs() []Spec {
	var specs []Spec
	for i := 0; i < 6; i++ {
		specs = append(specs, Spec{Experiment: "test-ok", Seed: int64(i)})
	}
	specs = append(specs,
		Spec{Experiment: "test-fail", Seed: 100},
		Spec{Experiment: "test-fail", Seed: 101},
	)
	return specs
}

func TestSweepProgressEventPairs(t *testing.T) {
	specs := mixedSpecs()
	var events []ProgressEvent
	r := &Runner{
		Workers:      4,
		ProgressFunc: func(ev ProgressEvent) { events = append(events, ev) }, // serialized by the runner
	}
	results, err := r.Sweep(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}

	starts := map[int]int{}
	finishes := map[int]int{}
	for _, ev := range events {
		switch ev.Kind {
		case RunStarted:
			starts[ev.Run.Index]++
			if ev.Run.Hash != specs[ev.Run.Index].Hash() {
				t.Errorf("start %d carries hash %s", ev.Run.Index, ev.Run.Hash)
			}
		case RunFinished:
			finishes[ev.Run.Index]++
			if (ev.Run.Err != "") != (results[ev.Run.Index].Err != "") {
				t.Errorf("finish %d error mismatch: event %q result %q",
					ev.Run.Index, ev.Run.Err, results[ev.Run.Index].Err)
			}
		}
	}
	for i := range specs {
		if starts[i] != 1 || finishes[i] != 1 {
			t.Errorf("spec %d: %d starts, %d finishes, want exactly 1/1", i, starts[i], finishes[i])
		}
	}

	// The last event's aggregates account for every run exactly.
	last := events[len(events)-1].Sweep
	if last.Done != len(specs) || last.Total != len(specs) {
		t.Errorf("final aggregates %d/%d, want %d/%d", last.Done, last.Total, len(specs), len(specs))
	}
	wantFailed := 0
	for _, res := range results {
		if res.Err != "" {
			wantFailed++
		}
	}
	if last.Failed != wantFailed {
		t.Errorf("final failed %d, want %d (matching results)", last.Failed, wantFailed)
	}
	if last.Cached != 0 {
		t.Errorf("cacheless sweep reports %d cache hits", last.Cached)
	}
	// Done never decreases and finishes strictly increment it.
	done := 0
	for _, ev := range events {
		if ev.Sweep.Done < done {
			t.Fatalf("aggregate Done went backwards: %d then %d", done, ev.Sweep.Done)
		}
		done = ev.Sweep.Done
	}
}

// TestSweepReporterJSONLStream is the acceptance check for the
// -progress-jsonl pipeline: a 4-worker sweep emits exactly one
// run_start/run_finish pair per run, periodic aggregate lines, and a
// closing summary whose counts match the returned results exactly.
func TestSweepReporterJSONLStream(t *testing.T) {
	specs := mixedSpecs()
	var stream bytes.Buffer
	rep := &SweepReporter{JSONL: &stream, AggregateEvery: 0} // aggregate after every finish
	r := &Runner{Workers: 4, ProgressFunc: rep.Func()}
	results, err := r.Sweep(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Close(); err != nil {
		t.Fatal(err)
	}

	// "cached" is a bool on run lines and a count on aggregate lines,
	// so each line type gets its own decode target.
	type runLine struct {
		Type  string `json:"type"`
		Index int    `json:"i"`
		Hash  string `json:"hash"`
		Error string `json:"error"`
	}
	type aggLine struct {
		Type     string `json:"type"`
		Done     int    `json:"done"`
		Total    int    `json:"total"`
		Failed   int    `json:"failed"`
		Cached   int    `json:"cached"`
		Failures []struct {
			Experiment string `json:"experiment"`
			Error      string `json:"error"`
		} `json:"failures"`
	}
	starts := map[int]int{}
	finishes := map[int]int{}
	aggregates := 0
	var summary *aggLine
	sc := bufio.NewScanner(bytes.NewReader(stream.Bytes()))
	n := 0
	for sc.Scan() {
		n++
		var head struct {
			Type string `json:"type"`
		}
		if err := json.Unmarshal(sc.Bytes(), &head); err != nil {
			t.Fatalf("stream line %d not JSON: %v\n%s", n, err, sc.Text())
		}
		switch head.Type {
		case "run_start", "run_finish":
			var l runLine
			if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
				t.Fatal(err)
			}
			if head.Type == "run_start" {
				starts[l.Index]++
				break
			}
			finishes[l.Index]++
			if (l.Error != "") != (results[l.Index].Err != "") {
				t.Errorf("finish line %d error mismatch", l.Index)
			}
		case "progress":
			aggregates++
		case "sweep_summary":
			if summary != nil {
				t.Fatal("two sweep_summary lines")
			}
			summary = &aggLine{}
			if err := json.Unmarshal(sc.Bytes(), summary); err != nil {
				t.Fatal(err)
			}
		default:
			t.Fatalf("unknown line type %q", head.Type)
		}
	}
	for i := range specs {
		if starts[i] != 1 || finishes[i] != 1 {
			t.Errorf("spec %d: %d start lines, %d finish lines", i, starts[i], finishes[i])
		}
	}
	// AggregateEvery 0 means one progress line per finish.
	if aggregates != len(specs) {
		t.Errorf("%d progress lines, want %d", aggregates, len(specs))
	}
	if summary == nil {
		t.Fatal("no sweep_summary line")
	}

	wantFailed := 0
	for _, res := range results {
		if res.Err != "" {
			wantFailed++
		}
	}
	if summary.Done != len(results) || summary.Total != len(specs) || summary.Failed != wantFailed {
		t.Errorf("summary %d/%d failed %d, want %d/%d failed %d",
			summary.Done, summary.Total, summary.Failed, len(results), len(specs), wantFailed)
	}
	if len(summary.Failures) != wantFailed {
		t.Errorf("summary lists %d failures, want %d", len(summary.Failures), wantFailed)
	}
	if got := rep.Failed(); got != wantFailed {
		t.Errorf("reporter.Failed() = %d, want %d", got, wantFailed)
	}
}

func TestSweepReporterCacheHitsMatchResults(t *testing.T) {
	cache, err := NewCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var specs []Spec
	for i := 0; i < 5; i++ {
		specs = append(specs, Spec{Experiment: "test-ok", Seed: int64(200 + i)})
	}
	warm := &Runner{Workers: 4, Cache: cache}
	if _, err := warm.Sweep(context.Background(), specs); err != nil {
		t.Fatal(err)
	}

	var stream bytes.Buffer
	rep := &SweepReporter{JSONL: &stream}
	r := &Runner{Workers: 4, Cache: cache, ProgressFunc: rep.Func()}
	results, err := r.Sweep(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Close(); err != nil {
		t.Fatal(err)
	}
	wantCached := 0
	for _, res := range results {
		if res.Cached {
			wantCached++
		}
	}
	if wantCached != len(specs) {
		t.Fatalf("warm sweep only cached %d/%d", wantCached, len(specs))
	}
	var summary struct {
		Cached int `json:"cached"`
	}
	lines := strings.Split(strings.TrimSpace(stream.String()), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &summary); err != nil {
		t.Fatal(err)
	}
	if summary.Cached != wantCached {
		t.Errorf("summary cache hits %d, want %d (matching results)", summary.Cached, wantCached)
	}
}

func TestSweepReporterMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	rep := &SweepReporter{Reg: reg}
	r := &Runner{Workers: 2, ProgressFunc: rep.Func()}
	specs := mixedSpecs()
	results, err := r.Sweep(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	rep.Close()
	wantFailed := int64(0)
	for _, res := range results {
		if res.Err != "" {
			wantFailed++
		}
	}
	if got := reg.Counter("sweep.runs_done").Value(); got != int64(len(specs)) {
		t.Errorf("sweep.runs_done = %d, want %d", got, len(specs))
	}
	if got := reg.Counter("sweep.runs_failed").Value(); got != wantFailed {
		t.Errorf("sweep.runs_failed = %d, want %d", got, wantFailed)
	}
	if got := reg.Gauge("sweep.runs_total").Value(); got != float64(len(specs)) {
		t.Errorf("sweep.runs_total = %v", got)
	}
	if got := reg.Histogram("sweep.run_seconds", "", nil).Count(); got != int64(len(specs)) {
		t.Errorf("sweep.run_seconds count = %d, want %d", got, len(specs))
	}
}

func TestSweepReporterTTY(t *testing.T) {
	var tty bytes.Buffer
	rep := &SweepReporter{TTY: &tty}
	r := &Runner{Workers: 2, ProgressFunc: rep.Func()}
	specs := []Spec{
		{Experiment: "test-ok", Seed: 1},
		{Experiment: "test-ok", Seed: 2},
		{Experiment: "test-fail", Seed: 3},
	}
	if _, err := r.Sweep(context.Background(), specs); err != nil {
		t.Fatal(err)
	}
	rep.Close()
	out := tty.String()
	if !strings.Contains(out, "\rsweep 3/3 (100.0%)") {
		t.Errorf("final TTY line missing:\n%q", out)
	}
	if !strings.Contains(out, "fail 1") {
		t.Errorf("TTY line lacks failure count:\n%q", out)
	}
	if !strings.HasSuffix(out, "\n") {
		t.Error("Close did not terminate the TTY line")
	}
}

// TestSweepReporterUnknownTotalTTY: a count-less source renders a
// bare-count status line — no 0/0 fraction, no percentage, no ETA.
func TestSweepReporterUnknownTotalTTY(t *testing.T) {
	var tty bytes.Buffer
	rep := &SweepReporter{TTY: &tty}
	r := &Runner{Workers: 2, ProgressFunc: rep.Func()}
	specs := []Spec{
		{Experiment: "test-ok", Seed: 1},
		{Experiment: "test-ok", Seed: 2},
		{Experiment: "test-fail", Seed: 3},
	}
	if err := r.SweepStream(context.Background(), hideCount{SliceSource(specs)},
		func(RunResult) error { return nil }); err != nil {
		t.Fatal(err)
	}
	rep.Close()
	out := tty.String()
	if !strings.Contains(out, "sweep 3 done") {
		t.Errorf("count-only line missing:\n%q", out)
	}
	if !strings.Contains(out, "fail 1") {
		t.Errorf("TTY line lacks failure count:\n%q", out)
	}
	for _, bogus := range []string{"/0", "0/", "%", "eta"} {
		if strings.Contains(out, bogus) {
			t.Errorf("unknown-total TTY line contains %q:\n%q", bogus, out)
		}
	}
	var human bytes.Buffer
	rep.Summarize(&human)
	if strings.Contains(human.String(), "/0 done") {
		t.Errorf("summary renders a bogus 0 total:\n%s", human.String())
	}
	if !strings.Contains(human.String(), "3 done, 1 failed") {
		t.Errorf("summary lacks count-only header:\n%s", human.String())
	}
}

// TestSweepReporterUnknownTotalJSONL: aggregate and summary lines from
// a count-less source omit the total and eta_s keys entirely, while a
// known-total stream keeps them.
func TestSweepReporterUnknownTotalJSONL(t *testing.T) {
	run := func(t *testing.T, src SpecSource) []map[string]any {
		t.Helper()
		var stream bytes.Buffer
		rep := &SweepReporter{JSONL: &stream, AggregateEvery: 0}
		r := &Runner{Workers: 2, ProgressFunc: rep.Func()}
		if err := r.SweepStream(context.Background(), src, func(RunResult) error { return nil }); err != nil {
			t.Fatal(err)
		}
		if err := rep.Close(); err != nil {
			t.Fatal(err)
		}
		var aggs []map[string]any
		sc := bufio.NewScanner(bytes.NewReader(stream.Bytes()))
		for sc.Scan() {
			var line map[string]any
			if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
				t.Fatalf("bad JSONL line: %v", err)
			}
			if typ := line["type"]; typ == "progress" || typ == "sweep_summary" {
				aggs = append(aggs, line)
			}
		}
		if len(aggs) == 0 {
			t.Fatal("no aggregate lines")
		}
		return aggs
	}
	specs := []Spec{
		{Experiment: "test-ok", Seed: 1},
		{Experiment: "test-ok", Seed: 2},
	}

	for _, line := range run(t, hideCount{SliceSource(specs)}) {
		if _, has := line["total"]; has {
			t.Errorf("unknown-total %s line carries total: %v", line["type"], line)
		}
		if _, has := line["eta_s"]; has {
			t.Errorf("unknown-total %s line carries eta_s: %v", line["type"], line)
		}
		if _, has := line["done"]; !has {
			t.Errorf("%s line lost its done count: %v", line["type"], line)
		}
	}
	for _, line := range run(t, SliceSource(specs)) {
		if total, has := line["total"]; !has || total != float64(len(specs)) {
			t.Errorf("known-total %s line total = %v", line["type"], total)
		}
		if _, has := line["eta_s"]; !has {
			t.Errorf("known-total %s line lost eta_s: %v", line["type"], line)
		}
	}
}

func TestSweepReporterSummarize(t *testing.T) {
	var stream bytes.Buffer
	rep := &SweepReporter{JSONL: &stream}
	r := &Runner{Workers: 2, ProgressFunc: rep.Func(), FlightDir: t.TempDir()}
	specs := []Spec{
		{Experiment: "test-sleep", Seed: 1, Flows: 5},
		{Experiment: "test-sleep", Seed: 2, Flows: 10},
		{Experiment: "test-sleep", Seed: 3, Flows: 1},
		{Experiment: "test-trace-fail", Seed: 4},
	}
	results, err := r.Sweep(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	rep.Close()
	var human bytes.Buffer
	rep.Summarize(&human)
	out := human.String()
	if !strings.Contains(out, "4/4 done, 1 failed") {
		t.Errorf("summary header wrong:\n%s", out)
	}
	if !strings.Contains(out, "slowest runs:") {
		t.Errorf("no slowest table:\n%s", out)
	}
	if !strings.Contains(out, "FAIL test-trace-fail") {
		t.Errorf("failure line missing:\n%s", out)
	}
	if !strings.Contains(out, "flight: "+results[3].FlightDump) || results[3].FlightDump == "" {
		t.Errorf("failure line lacks flight pointer %q:\n%s", results[3].FlightDump, out)
	}
}

func TestNoteSlowestKeepsLargest(t *testing.T) {
	rep := &SweepReporter{}
	for _, ms := range []int{5, 1, 9, 3, 7, 2, 8, 4} {
		rep.noteSlowest(RunStats{Elapsed: time.Duration(ms) * time.Millisecond})
	}
	var got []int
	for _, run := range rep.slowest {
		got = append(got, int(run.Elapsed/time.Millisecond))
	}
	if want := []int{4, 5, 7, 8, 9}; !reflect.DeepEqual(got, want) {
		t.Fatalf("slowest = %v ms, want the %d largest ascending %v", got, slowestK, want)
	}
}

// TestFlightDumpOnFailure is the acceptance check for the flight
// recorder: a deliberately failing spec that emitted trace events
// produces a ReadRunLog-compatible dump holding those events and the
// run error.
func TestFlightDumpOnFailure(t *testing.T) {
	dir := t.TempDir()
	r := &Runner{Workers: 2, FlightDir: dir}
	specs := []Spec{
		{Experiment: "test-ok", Seed: 1},
		{Experiment: "test-trace-fail", Seed: 2, FaultSeed: 4, RateBps: 48e6, RTTMs: 100,
			Queue: "fq", BufferBDP: 2, Phases: []string{"reno", "cbr"}},
		{Experiment: "test-ok", Seed: 3},
	}
	results, err := r.Sweep(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	if results[0].FlightDump != "" || results[2].FlightDump != "" {
		t.Errorf("healthy runs have flight dumps: %+v", results)
	}
	path := results[1].FlightDump
	if path == "" {
		t.Fatal("failed run has no flight dump")
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	log, err := obs.ReadRunLog(f)
	if err != nil {
		t.Fatalf("flight dump unreadable: %v", err)
	}
	if log.Manifest.Tool != "ccac/test-trace-fail" || log.Manifest.Seed != 2 {
		t.Errorf("manifest %+v", log.Manifest)
	}
	if log.Manifest.Extra["spec_hash"] != specs[1].Hash() {
		t.Errorf("manifest hash %q, want %q", log.Manifest.Extra["spec_hash"], specs[1].Hash())
	}
	// The dump's header is the spec's -trace manifest (Spec.Manifest is
	// what ccac run -trace writes) but for the artifact tag.
	want := specs[1].Manifest()
	want.Extra["artifact"] = "flight"
	if !reflect.DeepEqual(log.Manifest, want) {
		t.Errorf("flight manifest %+v\nwant the -trace manifest plus artifact: %+v", log.Manifest, want)
	}
	if len(log.Events) != 6 {
		t.Errorf("dump holds %d events, want the 6 emitted", len(log.Events))
	}
	last := log.Events[len(log.Events)-1]
	if last.Type != obs.EvState || last.Note != "dying" {
		t.Errorf("last event %+v, want the dying state transition", last)
	}
	if log.Summary == nil || log.Summary.Error != "traced failure" {
		t.Errorf("summary: %+v", log.Summary)
	}
}

func TestFlightDumpMergesWithScopeTracer(t *testing.T) {
	// A run that already has a tracer keeps it: the flight recorder
	// fans out rather than stealing the seat.
	var ring countingTracer
	r := &Runner{
		Workers:   1,
		FlightDir: t.TempDir(),
		NewScope:  func(Spec) *obs.Scope { return &obs.Scope{Reg: obs.NewRegistry(), Tracer: &ring} },
	}
	results, err := r.Sweep(context.Background(), []Spec{{Experiment: "test-trace-fail", Seed: 7}})
	if err != nil {
		t.Fatal(err)
	}
	if results[0].FlightDump == "" {
		t.Fatal("no flight dump")
	}
	if got := ring.n.Load(); got != 6 {
		t.Errorf("scope tracer saw %d events, want 6", got)
	}
}

// countingTracer counts the events emitted to it.
type countingTracer struct{ n atomic.Int64 }

func (c *countingTracer) Emit(obs.Event) { c.n.Add(1) }

func TestSweepRecoversPanics(t *testing.T) {
	dir := t.TempDir()
	r := &Runner{Workers: 2, FlightDir: dir}
	specs := []Spec{
		{Experiment: "test-ok", Seed: 1},
		{Experiment: "test-panic", Seed: 2},
		{Experiment: "test-ok", Seed: 3},
	}
	results, err := r.Sweep(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Err != "" || results[2].Err != "" {
		t.Fatalf("panic poisoned other slots: %+v", results)
	}
	if !strings.HasPrefix(results[1].Err, "panic: kaboom") {
		t.Fatalf("panic not recorded: %q", results[1].Err)
	}
	if !strings.Contains(results[1].Err, "goroutine") {
		t.Errorf("recovered panic lacks stack: %q", results[1].Err)
	}
	if results[1].FlightDump == "" {
		t.Error("panicked run has no flight dump")
	}
	// The summary in the dump carries the panic (first line).
	f, err := os.Open(results[1].FlightDump)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	log, err := obs.ReadRunLog(f)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(log.Summary.Error, "panic: kaboom") {
		t.Errorf("dump summary error %q", log.Summary.Error)
	}
}

func TestDumpActiveFlights(t *testing.T) {
	dir := t.TempDir()
	r := &Runner{Workers: 1, FlightDir: dir}
	done := make(chan struct{})
	go func() {
		defer close(done)
		r.Sweep(context.Background(), []Spec{{Experiment: "test-gate", Seed: 50}})
	}()
	<-testStarted // the run is in flight
	paths := r.DumpActiveFlights()
	testGate.release()
	<-done
	if len(paths) != 1 {
		t.Fatalf("dumped %d in-flight runs, want 1", len(paths))
	}
	f, err := os.Open(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	log, err := obs.ReadRunLog(f)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(log.Summary.Error, "SIGQUIT") {
		t.Errorf("SIGQUIT dump summary: %+v", log.Summary)
	}
	// After the sweep drains, nothing is in flight.
	if paths := r.DumpActiveFlights(); len(paths) != 0 {
		t.Errorf("idle runner dumped %d flights", len(paths))
	}
}

func TestProgressDisabledIsFree(t *testing.T) {
	// No ProgressFunc, no FlightDir: the sweep path must not create
	// recorders or track flights.
	r := &Runner{Workers: 2}
	if _, err := r.Sweep(context.Background(), mixedSpecs()); err != nil {
		t.Fatal(err)
	}
	r.flightMu.Lock()
	defer r.flightMu.Unlock()
	if len(r.flights) != 0 {
		t.Errorf("flight table populated without FlightDir")
	}
}
