package timeseries

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

func testRecorder() (*Recorder, *obs.Registry) {
	reg := obs.NewRegistry()
	reg.Counter("sweep.runs_done")
	reg.GaugeL("flow.goodput_bps", "flow=1")
	reg.Histogram("run.seconds", "", []float64{1, 10})
	r := New(Config{Registry: reg, capacity: 4})
	return r, reg
}

func TestRecorderSamplesRegistry(t *testing.T) {
	r, reg := testRecorder()
	c := reg.Counter("sweep.runs_done")
	for i := 0; i < 3; i++ {
		c.Inc()
		r.Sample(time.Duration(i) * time.Second)
	}
	out := r.Query("sweep.runs_done", "", "")
	if len(out) != 1 {
		t.Fatalf("%d series for counter, want 1", len(out))
	}
	s := out[0]
	if len(s.Data) != 3 {
		t.Fatalf("%d samples, want 3", len(s.Data))
	}
	for i, smp := range s.Data {
		if smp.T != float64(i) || smp.V != float64(i+1) {
			t.Errorf("sample %d = %+v, want t=%d v=%d", i, smp, i, i+1)
		}
	}
}

func TestRecorderRingRetention(t *testing.T) {
	r, reg := testRecorder() // capacity: 4
	c := reg.Counter("sweep.runs_done")
	for i := 0; i < 10; i++ {
		c.Inc()
		r.Sample(time.Duration(i) * time.Second)
	}
	s := r.Query("sweep.runs_done", "", "")[0]
	if len(s.Data) != 4 {
		t.Fatalf("%d samples retained, want ring cap 4", len(s.Data))
	}
	// Oldest-first tail: t=6..9, v=7..10.
	for i, smp := range s.Data {
		if smp.T != float64(6+i) || smp.V != float64(7+i) {
			t.Errorf("sample %d = %+v, want t=%d v=%d", i, smp, 6+i, 7+i)
		}
	}
}

func TestRecorderHistogramFields(t *testing.T) {
	r, reg := testRecorder()
	h := reg.Histogram("run.seconds", "", nil)
	h.Observe(2)
	h.Observe(3)
	r.Sample(time.Second)
	all := r.Query("run.seconds", "", "")
	if len(all) != 2 {
		t.Fatalf("%d series for histogram, want count+sum", len(all))
	}
	count := r.Query("run.seconds", "", "count")
	sum := r.Query("run.seconds", "", "sum")
	if len(count) != 1 || count[0].Data[0].V != 2 {
		t.Errorf("count series: %+v", count)
	}
	if len(sum) != 1 || sum[0].Data[0].V != 5 {
		t.Errorf("sum series: %+v", sum)
	}
}

func TestRecorderRuntimeSeries(t *testing.T) {
	r := New(Config{Runtime: true, capacity: 2})
	r.Sample(0)
	for _, name := range []string{
		"go.goroutines", "go.heap_alloc_bytes", "go.heap_objects",
		"go.gc_pause_total_s", "go.gc_cycles",
	} {
		s := r.Query(name, "", "")
		if len(s) != 1 || len(s[0].Data) != 1 {
			t.Errorf("runtime series %s missing: %+v", name, s)
			continue
		}
		if name == "go.goroutines" && s[0].Data[0].V < 1 {
			t.Errorf("goroutines sample %v", s[0].Data[0].V)
		}
	}
}

func TestRecorderListSorted(t *testing.T) {
	r, _ := testRecorder()
	r.Sample(0)
	infos := r.List()
	if len(infos) < 4 {
		t.Fatalf("list has %d series: %+v", len(infos), infos)
	}
	for i := 1; i < len(infos); i++ {
		a, b := infos[i-1], infos[i]
		if a.Name > b.Name || (a.Name == b.Name && a.Label > b.Label) ||
			(a.Name == b.Name && a.Label == b.Label && a.Field > b.Field) {
			t.Fatalf("list not sorted at %d: %+v then %+v", i, a, b)
		}
	}
}

func TestRecorderWriteJSONL(t *testing.T) {
	r, reg := testRecorder()
	reg.Counter("sweep.runs_done").Inc()
	r.Sample(time.Second)
	r.Sample(2 * time.Second)

	var sb strings.Builder
	if err := r.WriteJSONL(&sb); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(strings.NewReader(sb.String()))
	lines := 0
	for sc.Scan() {
		lines++
		var row struct {
			Name string  `json:"name"`
			T    float64 `json:"t"`
			V    float64 `json:"v"`
		}
		if err := json.Unmarshal(sc.Bytes(), &row); err != nil {
			t.Fatalf("line %d not JSON: %v", lines, err)
		}
		if row.Name == "" {
			t.Fatalf("line %d has no name: %s", lines, sc.Text())
		}
	}
	// 4 series (counter, gauge, hist count, hist sum) x 2 samples.
	if lines != 8 {
		t.Errorf("%d JSONL lines, want 8", lines)
	}
}

func TestHandler(t *testing.T) {
	r, reg := testRecorder()
	reg.Counter("sweep.runs_done").Add(5)
	r.Sample(time.Second)
	srv := httptest.NewServer(r.Handler())
	defer srv.Close()

	get := func(path string) (int, string, string) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(body), resp.Header.Get("Content-Type")
	}

	// Index.
	code, body, ct := get("/")
	if code != 200 || ct != "application/json" {
		t.Fatalf("index: %d %s", code, ct)
	}
	var idx struct {
		IntervalS float64      `json:"interval_s"`
		Retention int          `json:"retention"`
		Ticks     int64        `json:"ticks"`
		Series    []SeriesInfo `json:"series"`
	}
	if err := json.Unmarshal([]byte(body), &idx); err != nil {
		t.Fatal(err)
	}
	if idx.Retention != 4 || idx.Ticks != 1 || len(idx.Series) != 4 {
		t.Errorf("index: %+v", idx)
	}

	// Named query.
	code, body, _ = get("/?name=sweep.runs_done")
	if code != 200 {
		t.Fatalf("query: %d %s", code, body)
	}
	var matches []Series
	if err := json.Unmarshal([]byte(body), &matches); err != nil {
		t.Fatal(err)
	}
	if len(matches) != 1 || matches[0].Data[0].V != 5 {
		t.Errorf("query result: %+v", matches)
	}

	// Field-filtered query.
	code, body, _ = get("/?name=run.seconds&field=sum")
	if code != 200 {
		t.Fatalf("field query: %d %s", code, body)
	}
	if err := json.Unmarshal([]byte(body), &matches); err != nil {
		t.Fatal(err)
	}
	if len(matches) != 1 || matches[0].Field != "sum" {
		t.Errorf("field query result: %+v", matches)
	}

	// Unknown name is a 404.
	if code, _, _ = get("/?name=no.such.metric"); code != http.StatusNotFound {
		t.Errorf("unknown name: %d, want 404", code)
	}

	// JSONL dump.
	code, body, ct = get("/?format=jsonl")
	if code != 200 || ct != "application/jsonl" {
		t.Fatalf("jsonl: %d %s", code, ct)
	}
	if n := strings.Count(body, "\n"); n != 4 {
		t.Errorf("jsonl dump has %d lines, want 4 (one per series):\n%s", n, body)
	}
}

func TestRunSamplesOnTicker(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("c")
	r := New(Config{Registry: reg, Interval: 5 * time.Millisecond, capacity: 100})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Millisecond)
	defer cancel()
	r.Run(ctx)
	if got := r.Ticks(); got < 2 {
		t.Errorf("Run took %d samples, want >= 2 (immediate + ticker)", got)
	}
}

// BenchmarkRecorderSample is the zero-allocs acceptance benchmark: once
// every series exists, a Sample must not allocate. Registry.Visit avoids
// the Snapshot() point slice and the visit closure is pre-bound.
func BenchmarkRecorderSample(b *testing.B) {
	reg := obs.NewRegistry()
	for i := 0; i < 8; i++ {
		reg.Counter("bench.counter." + string(rune('a'+i))).Add(int64(i))
		reg.GaugeL("bench.gauge", "i="+string(rune('a'+i))).Set(float64(i))
	}
	h := reg.Histogram("bench.hist", "", []float64{1, 2, 4, 8})
	for i := 0; i < 100; i++ {
		h.Observe(float64(i % 10))
	}
	r := New(Config{Registry: reg, Runtime: true, capacity: 512})
	r.Sample(0) // warmup: create every series
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Sample(time.Duration(i))
	}
	b.StopTimer()
	if n := testing.AllocsPerRun(100, func() { r.Sample(time.Second) }); n != 0 {
		b.Fatalf("Sample allocates %v/op after warmup", n)
	}
}
