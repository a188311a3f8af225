package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"testing"
)

const benchmarkJSON = "../BENCHMARK.json"

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func readSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	var spec benchmarkSpec
	if err := readJSON(benchmarkJSON, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestBenchmarkSpec holds BENCHMARK.json to the contract's limits and
// to the program: same workloads in the same order, same per-layer list.
func TestBenchmarkSpec(t *testing.T) {
	spec := readSpec(t)
	if n := len(spec.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(spec.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(spec.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	seen := map[string]bool{}
	name := func(kind, n string) {
		if !metricName.MatchString(n) {
			t.Errorf("%s name %q does not match %v", kind, n, metricName)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		name("workload", w.Name)
		if w.Name != workloads[i].name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the program", i, w.Name, workloads[i].name)
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	setup := false
	for _, m := range spec.EndToEnd {
		name("end-to-end", m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("end_to_end lacks setup_s in s, lower is better")
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the program %d", len(spec.PerLayer), len(perLayer))
	}
	for i, m := range spec.PerLayer {
		name("per-layer", m.Name)
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per-layer metric %d is %s [%s] in BENCHMARK.json, %s [%s] in the program",
				i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
}

// TestQuickPass runs every workload at toy size, plain and traced, and
// checks that each run prints exactly the metrics BENCHMARK.json names,
// that no op fails, that the traced run leaves its span file, and that
// a result file compares clean against itself.
func TestQuickPass(t *testing.T) {
	if runtime.NumCPU() < workers {
		t.Skipf("needs %d CPUs", workers)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(workers))
	spec := readSpec(t)
	out := t.TempDir()

	for _, trace := range []bool{false, true} {
		want := spec.EndToEnd
		if trace {
			want = spec.PerLayer
		}
		var file resultFile
		for _, w := range spec.Workloads {
			var buf bytes.Buffer
			o := options{workload: w.Name, seed: 1, trace: trace, quick: true, outDir: out}
			if err := runSingle(&buf, o); err != nil {
				t.Fatalf("%s (trace %v): %v", w.Name, trace, err)
			}
			lines := strings.Split(strings.TrimSpace(buf.String()), "\n")

			// The last line is the contract's: exactly these keys.
			var last map[string]json.RawMessage
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
				t.Fatalf("%s: last line is not JSON: %v", w.Name, err)
			}
			if len(last) != 4 {
				t.Errorf("%s: result line has %d keys, want correct, attempted, failed, metrics", w.Name, len(last))
			}
			var metrics map[string]struct {
				Value *float64 `json:"value"`
				Unit  string   `json:"unit"`
			}
			if err := json.Unmarshal(last["metrics"], &metrics); err != nil {
				t.Fatal(err)
			}
			if len(metrics) != len(want) {
				t.Errorf("%s (trace %v): %d metrics in the result line, want %d", w.Name, trace, len(metrics), len(want))
			}
			for _, m := range want {
				got, ok := metrics[m.Name]
				switch {
				case !ok || got.Value == nil:
					t.Errorf("%s (trace %v): metric %s is missing", w.Name, trace, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s: metric %s has unit %q, BENCHMARK.json says %q", w.Name, m.Name, got.Unit, m.Unit)
				case !trace && *got.Value <= 0:
					t.Errorf("%s: end-to-end metric %s is %g, must never be 0", w.Name, m.Name, *got.Value)
				}
				// printed by name, once
				n := 0
				for _, line := range lines {
					if f := strings.Fields(line); len(f) >= 3 && f[0] == m.Name {
						n++
					}
				}
				if n != 1 {
					t.Errorf("%s (trace %v): metric %s is printed %d times, want once", w.Name, trace, m.Name, n)
				}
			}

			var rec record
			for _, line := range lines {
				if strings.HasPrefix(line, detailPrefix) {
					if err := json.Unmarshal([]byte(line[len(detailPrefix):]), &rec); err != nil {
						t.Fatal(err)
					}
				}
			}
			if rec.Workload != w.Name || !rec.Correct || rec.Failed != 0 || rec.Attempted < 1 {
				t.Errorf("%s (trace %v): correct %v, %d of %d ops failed: %v", w.Name, trace, rec.Correct, rec.Failed, rec.Attempted, rec.Failures)
			}
			if trace {
				if _, err := os.Stat(filepath.Join(out, "trace-"+w.Name+".jsonl")); err != nil {
					t.Errorf("%s: traced run left no span file: %v", w.Name, err)
				}
			}
			file.Workloads = append(file.Workloads, rec)
		}
		if trace {
			continue
		}
		path := filepath.Join(out, "ledger.json")
		b, err := json.Marshal(file)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		var table bytes.Buffer
		worse, err := compareFiles(&table, benchmarkJSON, path, path)
		if err != nil {
			t.Fatal(err)
		}
		if worse || strings.Contains(table.String(), "unresolved") || strings.Contains(table.String(), "worse") {
			t.Errorf("a file compared with itself is not all ok:\n%s", table.String())
		}
		if got, want := strings.Count(table.String(), " ok\n"), len(spec.Workloads)*(len(spec.EndToEnd)+1); got != want {
			t.Errorf("self-compare printed %d ok rows, want %d:\n%s", got, want, table.String())
		}
	}
}

// TestCompareVerdicts pins the three verdicts on hand-made files.
func TestCompareVerdicts(t *testing.T) {
	spec := readSpec(t)
	mk := func(wall metric) resultFile {
		rec := record{Workload: "w", Correct: true, Attempted: 10, Metrics: map[string]metric{}}
		for _, m := range spec.EndToEnd {
			rec.Metrics[m.Name] = metric{Value: 1, Unit: m.Unit, N: 1}
		}
		rec.Metrics["wall_s"] = wall
		return resultFile{Workloads: []record{rec}}
	}
	bound := 0.0
	for _, m := range spec.EndToEnd {
		if m.Name == "wall_s" {
			bound = m.Bound
		}
	}
	tight := func(v float64) metric {
		return metric{Value: v, Unit: "s", N: 10, Min: v * 0.98, Q1: v * 0.99, Q3: v * 1.01, Max: v * 1.02}
	}
	wide := metric{Value: 1, Unit: "s", N: 10, Min: 1 - 2*bound, Q1: 1 - bound, Q3: 1 + bound, Max: 1 + 2*bound}
	dir := t.TempDir()
	write := func(name string, f resultFile) string {
		path := filepath.Join(dir, name)
		b, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	for _, c := range []struct {
		name          string
		before, after metric
		verdict       string
		worse         bool
	}{
		{"same", tight(1), tight(1.02), "ok", false},
		{"slower", tight(1), tight(1 + 2*bound), "worse", true},
		{"faster", tight(1), tight(0.5), "ok", false},
		{"noisy", wide, wide, "unresolved", false},
	} {
		var table bytes.Buffer
		worse, err := compareFiles(&table, benchmarkJSON, write("a.json", mk(c.before)), write("b.json", mk(c.after)))
		if err != nil {
			t.Fatal(err)
		}
		row := ""
		for _, line := range strings.Split(table.String(), "\n") {
			if f := strings.Fields(line); len(f) > 1 && f[1] == "wall_s" {
				row = line
			}
		}
		if worse != c.worse || !strings.HasSuffix(row, " "+c.verdict) {
			t.Errorf("%s: worse=%v, row %q; want worse=%v, verdict %s", c.name, worse, row, c.worse, c.verdict)
		}
	}
}
