package obs

import (
	"bytes"
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite golden files")

// fixedRegistry builds a registry with deterministic contents for the
// exporter golden tests.
func fixedRegistry() *Registry {
	r := NewRegistry()
	r.Counter("sim.engine.events").Add(1234)
	r.Counter("qdisc.drops").Add(10)
	r.Gauge("link.rate_bps").Set(48e6)
	r.GaugeFamily("flow.goodput_bps", "flow").With("1").Set(12.5e6)
	h := r.Histogram("flow.rtt_ms", "flow=1", []float64{10, 50, 100})
	for _, v := range []float64{5, 10, 11, 49, 50, 51, 100, 250} {
		h.Observe(v)
	}
	r.RegisterFunc("probe.sessions.active", "", func() float64 { return 2 })
	return r
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden file (run with -update-golden to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s mismatch:\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}

func TestSnapshotJSONLGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, fixedRegistry().Snapshot()); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "metrics.jsonl", buf.Bytes())
}

func TestHistogramBucketBoundaries(t *testing.T) {
	h := NewHistogram([]float64{10, 50, 100})
	// Bounds are inclusive upper edges: a sample exactly on a bound
	// lands in that bound's bucket.
	cases := []struct {
		v    float64
		want int // bucket index
	}{
		{-1, 0}, {0, 0}, {9.999, 0}, {10, 0},
		{10.001, 1}, {50, 1},
		{50.001, 2}, {100, 2},
		{100.001, 3}, {1e12, 3}, {math.Inf(1), 3},
	}
	for _, c := range cases {
		h.Observe(c.v)
	}
	s := h.Snapshot()
	want := make([]int64, 4)
	for _, c := range cases {
		want[c.want]++
	}
	for i := range want {
		if s.Counts[i] != want[i] {
			t.Errorf("bucket %d: got %d want %d", i, s.Counts[i], want[i])
		}
	}
	if s.Count != int64(len(cases)) {
		t.Errorf("count %d want %d", s.Count, len(cases))
	}
	// NaN is dropped, not binned.
	h.Observe(math.NaN())
	if got := h.Count(); got != int64(len(cases)) {
		t.Errorf("NaN was counted: %d", got)
	}
}

func TestHistogramUnsortedBoundsSorted(t *testing.T) {
	h := NewHistogram([]float64{100, 10, 50})
	h.Observe(20)
	s := h.Snapshot()
	if s.Bounds[0] != 10 || s.Bounds[1] != 50 || s.Bounds[2] != 100 {
		t.Fatalf("bounds not sorted: %v", s.Bounds)
	}
	if s.Counts[1] != 1 {
		t.Fatalf("sample in wrong bucket: %v", s.Counts)
	}
}

func TestConcurrentCounters(t *testing.T) {
	r := NewRegistry()
	const goroutines = 8
	const perG = 10000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := r.Counter("shared")
			fam := r.GaugeL("fam", "k=a")
			h := r.Histogram("hist", "", []float64{0.5})
			gg := r.Gauge("g")
			for i := 0; i < perG; i++ {
				c.Inc()
				fam.Add(1)
				h.Observe(float64(i % 2))
				gg.Add(1)
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("shared").Value(); got != goroutines*perG {
		t.Errorf("shared counter %d want %d", got, goroutines*perG)
	}
	if got := r.GaugeL("fam", "k=a").Value(); got != goroutines*perG {
		t.Errorf("labeled gauge %v want %d", got, goroutines*perG)
	}
	if got := r.Histogram("hist", "", nil).Count(); got != goroutines*perG {
		t.Errorf("histogram count %d want %d", got, goroutines*perG)
	}
	if got := r.Gauge("g").Value(); got != goroutines*perG {
		t.Errorf("gauge %v want %d", got, goroutines*perG)
	}
}

func TestHistogramNaNDoesNotPoisonSum(t *testing.T) {
	// Regression: a NaN observation must be dropped entirely — if it
	// reached sum.Add, every later Sum() (and the _sum exposition
	// sample) would be NaN forever.
	h := NewHistogram([]float64{1, 2})
	h.Observe(1.5)
	h.Observe(math.NaN())
	h.Observe(0.5)
	if got := h.Sum(); math.IsNaN(got) || got != 2 {
		t.Errorf("sum after NaN observation = %v, want 2", got)
	}
	if got := h.Count(); got != 2 {
		t.Errorf("count after NaN observation = %d, want 2", got)
	}
}

func TestWriteJSONLRoundTrip(t *testing.T) {
	pts := fixedRegistry().Snapshot()
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, pts); err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(&buf)
	var got []Point
	for dec.More() {
		var p Point
		if err := dec.Decode(&p); err != nil {
			t.Fatalf("decoding line %d: %v", len(got)+1, err)
		}
		got = append(got, p)
	}
	if len(got) != len(pts) {
		t.Fatalf("round-trip %d points, wrote %d", len(got), len(pts))
	}
	for i, p := range got {
		w := pts[i]
		if p.Name != w.Name || p.Label != w.Label || p.Kind != w.Kind || p.Value != w.Value {
			t.Errorf("point %d: got %+v want %+v", i, p, w)
		}
		if (p.Hist == nil) != (w.Hist == nil) {
			t.Errorf("point %d: hist presence mismatch", i)
			continue
		}
		if p.Hist != nil {
			if !reflect.DeepEqual(p.Hist.Bounds, w.Hist.Bounds) ||
				!reflect.DeepEqual(p.Hist.Counts, w.Hist.Counts) ||
				p.Hist.Count != w.Hist.Count || p.Hist.Sum != w.Hist.Sum {
				t.Errorf("point %d hist: got %+v want %+v", i, p.Hist, w.Hist)
			}
		}
	}
}

func TestExportersEmptyRegistry(t *testing.T) {
	pts := NewRegistry().Snapshot()
	var jbuf bytes.Buffer
	if err := WriteJSONL(&jbuf, pts); err != nil {
		t.Fatal(err)
	}
	if jbuf.Len() != 0 {
		t.Errorf("empty registry JSONL: %q", jbuf.String())
	}
}

// TestWriteSnapshotFileFormats: the file is JSONL whatever the path's
// suffix says.
func TestWriteSnapshotFileFormats(t *testing.T) {
	var want bytes.Buffer
	if err := WriteJSONL(&want, fixedRegistry().Snapshot()); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"m.jsonl", "m.csv"} {
		path := filepath.Join(t.TempDir(), name)
		if err := fixedRegistry().WriteSnapshotFile(path); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want.Bytes()) {
			t.Errorf("%s is not the JSONL snapshot:\n%s", name, got)
		}
	}
}

func TestVisitMatchesSnapshot(t *testing.T) {
	r := fixedRegistry()
	type key struct{ name, label, field string }
	visited := map[key]float64{}
	r.Visit(func(name, label, field string, v float64) {
		visited[key{name, label, field}] = v
	})
	for _, p := range r.Snapshot() {
		switch p.Kind {
		case "histogram":
			if visited[key{p.Name, p.Label, "count"}] != float64(p.Hist.Count) {
				t.Errorf("%s count: visit %v snapshot %d", p.Name, visited[key{p.Name, p.Label, "count"}], p.Hist.Count)
			}
			if visited[key{p.Name, p.Label, "sum"}] != p.Hist.Sum {
				t.Errorf("%s sum: visit %v snapshot %v", p.Name, visited[key{p.Name, p.Label, "sum"}], p.Hist.Sum)
			}
		default:
			if visited[key{p.Name, p.Label, ""}] != p.Value {
				t.Errorf("%s{%s}: visit %v snapshot %v", p.Name, p.Label, visited[key{p.Name, p.Label, ""}], p.Value)
			}
		}
	}
}
