// Command ledger is the repo's benchmark: five named workloads entered
// through the surfaces users drive (spec files run by scenario.Runner,
// census.RunShard, hunt.Run, the mlab record stream), each measured
// end to end with tracing off, plus a separate traced run that puts a
// number on every layer underneath. BENCHMARK.json at the repo root is
// the contract this program is written to; README.md beside this file
// holds the metric tables and the reasoning.
//
// Usage:
//
//	go run ./ledger                       all workloads, plain
//	go run ./ledger -trace 1              all workloads, traced (per-layer)
//	go run ./ledger -workload fig3-cell   one workload, in this process
//	go run ./ledger -compare A.json B.json
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// workers is the GOMAXPROCS every workload runs under and the pool size
// of the sweeping ones. It is a constant, not derived from the host, so
// two machines run the same program.
const workers = 2

// detailPrefix marks the line a single-workload run prints for the
// all-workloads parent to collect: the full record, with the per-op
// distribution the contract's result line has no room for.
const detailPrefix = "detail: "

// metric is one reported number. Value is the median when N > 1; the
// quartiles and extremes of the samples behind it ride along for
// -compare and never enter the contract's result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
	Min   float64 `json:"min,omitempty"`
	Q1    float64 `json:"q1,omitempty"`
	Q3    float64 `json:"q3,omitempty"`
	Max   float64 `json:"max,omitempty"`
}

// record is one workload's outcome in one invocation.
type record struct {
	Workload  string            `json:"workload"`
	Trace     bool              `json:"trace"`
	Seed      int64             `json:"seed"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Failures  []string          `json:"failures,omitempty"`
	Work      float64           `json:"work"`
	WorkUnit  string            `json:"work_unit"`
	Digest    string            `json:"result_digest"`
	Metrics   map[string]metric `json:"metrics"`
}

// fail records one failed op; only the first few reasons are kept.
func (r *record) fail(format string, args ...any) {
	r.Failed++
	if len(r.Failures) < 5 {
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
}

// header describes the invocation, so a result file says what machine
// and commit its numbers belong to.
type header struct {
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	CPU        string  `json:"cpu"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Quick      bool    `json:"quick,omitempty"`
	Trace      bool    `json:"trace"`
	WallS      float64 `json:"wall_s"`
}

// resultFile is what an all-workloads invocation writes and what
// -compare reads.
type resultFile struct {
	Header    header   `json:"header"`
	Workloads []record `json:"workloads"`
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	quick    bool
	outDir   string
}

func main() {
	var o options
	trace := flag.Int("trace", 0, "0 = end-to-end metrics with tracing off; 1 = the traced run (per-layer metrics)")
	compare := flag.Bool("compare", false, "compare two result files: ledger -compare A.json B.json")
	flag.StringVar(&o.workload, "workload", "", "run one workload in this process (default: all, one child process each)")
	flag.Int64Var(&o.seed, "seed", 1, "feeds every spec, model, hunt and dataset seed")
	flag.Float64Var(&o.seconds, "seconds", 15, "how long the timed ops of one workload run")
	flag.BoolVar(&o.quick, "quick", false, "toy sizes (the tier-1 smoke test's mode); numbers mean nothing")
	flag.StringVar(&o.outDir, "out", filepath.Join("ledger", "out"), "directory for result files and span traces")
	flag.Parse()
	o.trace = *trace != 0

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: ledger -compare A.json B.json")
			os.Exit(2)
		}
		worse, err := compareFiles(os.Stdout, "BENCHMARK.json", flag.Arg(0), flag.Arg(1))
		if err != nil {
			fmt.Fprintln(os.Stderr, "ledger:", err)
			os.Exit(2)
		}
		if worse {
			os.Exit(1)
		}
		return
	}
	if runtime.NumCPU() < workers {
		fmt.Fprintf(os.Stderr, "ledger: %d CPU available, %d needed: two of the workloads run %d workers, and on fewer cores the numbers would measure the scheduler\n",
			runtime.NumCPU(), workers, workers)
		os.Exit(2)
	}
	runtime.GOMAXPROCS(workers)

	var err error
	if o.workload != "" {
		err = runSingle(os.Stdout, o)
	} else {
		err = runAll(os.Stdout, o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "ledger:", err)
		os.Exit(1)
	}
}

// runSingle measures one workload in this process and prints its
// metrics, the detail line, and last the contract's result line.
func runSingle(w io.Writer, o options) error {
	wl, err := lookupWorkload(o.workload)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return err
	}
	var rec record
	if o.trace {
		rec, err = measureTraced(wl, o)
	} else {
		rec, err = measurePlain(wl, o)
	}
	if err != nil {
		return fmt.Errorf("%s: %w", wl.name, err)
	}
	printRecord(w, rec)
	detail, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s%s\n", detailPrefix, detail)
	line, err := contractLine(rec)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, line)
	return nil
}

// contractLine renders the record as the one JSON object the driver
// reads: exactly correct, attempted, failed and metrics, each metric
// exactly a value and a unit.
func contractLine(rec record) (string, error) {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{rec.Correct, rec.Attempted, rec.Failed, map[string]mv{}}
	for name, m := range rec.Metrics {
		out.Metrics[name] = mv{m.Value, m.Unit}
	}
	b, err := json.Marshal(out)
	return string(b), err
}

func printRecord(w io.Writer, rec record) {
	mode := "plain"
	if rec.Trace {
		mode = "traced"
	}
	fmt.Fprintf(w, "workload %s (%s, seed %d): %d ops attempted, %d failed; work %g %s/op; result %s\n",
		rec.Workload, mode, rec.Seed, rec.Attempted, rec.Failed, rec.Work, rec.WorkUnit, shortDigest(rec.Digest))
	for _, f := range rec.Failures {
		fmt.Fprintf(w, "  FAILED: %s\n", f)
	}
	names := make([]string, 0, len(rec.Metrics))
	for name := range rec.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := rec.Metrics[name]
		fmt.Fprintf(w, "  %-32s %14.6g %-6s", name, m.Value, m.Unit)
		switch {
		case m.N > 1 && m.Max != 0: // a median: show what it is the median of
			fmt.Fprintf(w, "  n=%d min %.6g q1 %.6g q3 %.6g max %.6g", m.N, m.Min, m.Q1, m.Q3, m.Max)
		case m.N > 1: // a probe's mean: show its iteration count
			fmt.Fprintf(w, "  n=%d", m.N)
		}
		fmt.Fprintln(w)
	}
}

func shortDigest(d string) string {
	if len(d) > 12 {
		return d[:12]
	}
	return d
}

// runAll runs every workload in a fresh child process, so none inherits
// another's heap, GC pacing or peak RSS, and writes one result file.
func runAll(w io.Writer, o options) error {
	start := time.Now()
	self, err := os.Executable()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return err
	}
	h := newHeader(o)
	fmt.Fprintf(w, "ledger: commit %s, %s, %s, nproc %d, GOMAXPROCS %d, seed %d, %gs per workload\n",
		h.Commit, h.GoVersion, h.CPU, h.NumCPU, h.GOMAXPROCS, h.Seed, h.Seconds)

	out := resultFile{Header: h}
	for _, wl := range workloads {
		args := []string{
			"-workload", wl.name,
			"-seed", strconv.FormatInt(o.seed, 10),
			"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64),
			"-out", o.outDir,
		}
		if o.trace {
			args = append(args, "-trace", "1")
		}
		if o.quick {
			args = append(args, "-quick")
		}
		rec, err := runChild(w, self, args)
		if err != nil {
			return fmt.Errorf("%s: %w", wl.name, err)
		}
		out.Workloads = append(out.Workloads, rec)
	}
	out.Header.WallS = time.Since(start).Seconds()

	name := "ledger.json"
	if o.trace {
		name = "ledger-trace.json"
	}
	path := filepath.Join(o.outDir, name)
	b, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return err
	}
	failed := 0
	for _, rec := range out.Workloads {
		failed += rec.Failed
	}
	fmt.Fprintf(w, "ledger: %d workloads, %d failed ops, %.1fs wall; wrote %s\n",
		len(out.Workloads), failed, out.Header.WallS, path)
	return nil
}

// runChild runs one workload in a child process, echoing its report and
// returning the record from its detail line.
func runChild(w io.Writer, self string, args []string) (record, error) {
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	var buf bytes.Buffer
	cmd.Stdout = &buf
	if err := cmd.Run(); err != nil {
		io.Copy(w, &buf)
		return record{}, err
	}
	var rec record
	found := false
	sc := bufio.NewScanner(&buf)
	sc.Buffer(nil, 1<<24)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, detailPrefix):
			if err := json.Unmarshal([]byte(line[len(detailPrefix):]), &rec); err != nil {
				return record{}, fmt.Errorf("detail line: %w", err)
			}
			found = true
		case strings.HasPrefix(line, "{"):
			// the contract line: the parent's reader is the file
		default:
			fmt.Fprintln(w, line)
		}
	}
	if err := sc.Err(); err != nil {
		return record{}, err
	}
	if !found {
		return record{}, fmt.Errorf("child printed no detail line")
	}
	return rec, nil
}

func newHeader(o options) header {
	return header{
		Commit:     commit(),
		GoVersion:  runtime.Version(),
		CPU:        cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seed:       o.seed,
		Seconds:    o.seconds,
		Quick:      o.quick,
		Trace:      o.trace,
	}
}

// commit returns the VCS revision stamped into the binary, falling
// back to asking git, and to "unknown" outside a repository.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if rev != "" {
			if len(rev) > 12 {
				rev = rev[:12]
			}
			if dirty {
				rev += "+dirty"
			}
			return rev
		}
	}
	if out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output(); err == nil {
		return strings.TrimSpace(string(out))
	}
	return "unknown"
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "model name") {
			if i := strings.Index(line, ":"); i >= 0 {
				return strings.TrimSpace(line[i+1:])
			}
		}
	}
	return runtime.GOARCH
}
