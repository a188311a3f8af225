package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// benchmarkSpec is the part of BENCHMARK.json the program reads.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// compareFiles applies BENCHMARK.json's bounds to two result files and
// prints one row per (workload, end-to-end metric): before, after, the
// change, and a verdict. It reports whether any row is worse.
//
//   - worse: the after median is worse than the before median by more
//     than the metric's bound, or more ops failed.
//   - unresolved: not worse, but the two sides' interquartile ranges
//     overlap over more than the bound — the run-to-run spread is wider
//     than what the bound could resolve, so "no change" is not shown.
//     (Quartiles, not extremes: on a shared box one op in fifteen
//     always catches a neighbour.)
//   - ok: otherwise.
func compareFiles(w io.Writer, specPath, beforePath, afterPath string) (worse bool, err error) {
	var spec benchmarkSpec
	var before, after resultFile
	if err := readJSON(specPath, &spec); err != nil {
		return false, err
	}
	if err := readJSON(beforePath, &before); err != nil {
		return false, err
	}
	if err := readJSON(afterPath, &after); err != nil {
		return false, err
	}
	afterBy := map[string]record{}
	for _, rec := range after.Workloads {
		afterBy[rec.Workload] = rec
	}
	fmt.Fprintf(w, "before: %s (commit %s, seed %d)\nafter:  %s (commit %s, seed %d)\n",
		beforePath, before.Header.Commit, before.Header.Seed, afterPath, after.Header.Commit, after.Header.Seed)
	fmt.Fprintf(w, "%-14s %-12s %12s %12s %8s %6s  %s\n", "workload", "metric", "before", "after", "change", "bound", "verdict")
	for _, a := range before.Workloads {
		b, ok := afterBy[a.Workload]
		if !ok {
			return false, fmt.Errorf("%s: workload %s is missing", afterPath, a.Workload)
		}
		for _, ms := range spec.EndToEnd {
			ma, oka := a.Metrics[ms.Name]
			mb, okb := b.Metrics[ms.Name]
			if !oka || !okb {
				return false, fmt.Errorf("workload %s: metric %s is missing from a result file", a.Workload, ms.Name)
			}
			// change > 0 means worse, whichever way the metric points
			change := (mb.Value - ma.Value) / ma.Value
			if ms.Better == "higher" {
				change = -change
			}
			verdict := "ok"
			switch {
			case change > ms.Bound:
				verdict, worse = "worse", true
			case overlap(ma, mb)/ma.Value > ms.Bound:
				verdict = "unresolved"
			}
			fmt.Fprintf(w, "%-14s %-12s %12.6g %12.6g %+7.1f%% %5.0f%%  %s\n",
				a.Workload, ms.Name, ma.Value, mb.Value, 100*change, 100*ms.Bound, verdict)
		}
		verdict := "ok"
		if b.Failed*a.Attempted > a.Failed*b.Attempted {
			verdict, worse = "worse", true
		}
		fmt.Fprintf(w, "%-14s %-12s %12s %12s %8s %6s  %s\n", a.Workload, "failed/ops",
			fmt.Sprintf("%d/%d", a.Failed, a.Attempted), fmt.Sprintf("%d/%d", b.Failed, b.Attempted), "", "", verdict)
		if a.Digest != b.Digest {
			fmt.Fprintf(w, "%-14s result_digest differs: %s -> %s\n", a.Workload, shortDigest(a.Digest), shortDigest(b.Digest))
		}
	}
	return worse, nil
}

// overlap is the length the two metrics' interquartile ranges share; a
// metric with one sample has no range.
func overlap(a, b metric) float64 {
	if a.N < 2 || b.N < 2 {
		return 0
	}
	lo, hi := a.Q1, a.Q3
	if b.Q1 > lo {
		lo = b.Q1
	}
	if b.Q3 < hi {
		hi = b.Q3
	}
	if hi < lo {
		return 0
	}
	return hi - lo
}
