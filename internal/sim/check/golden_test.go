package check_test

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/scenario"
)

// -update regenerates the golden trace files from the current
// simulator. Run it only when an intentional behaviour change has been
// reviewed: the whole point of the corpus is that engine rewrites and
// optimizations keep these byte streams identical.
var update = flag.Bool("update", false, "regenerate golden trace files")

// goldenSample keeps one in every N bulk events (control events are
// always retained), which keeps the committed fixtures small while
// still pinning the exact interleaving: sampling is a deterministic
// per-type counter, so any reordering or drift upstream shifts which
// events are kept and changes the bytes.
const goldenSample = 32

// fig3Trace runs a shortened five-phase Figure 3 (every cross-traffic
// kind: a CCA phase, video, Poisson short flows, CBR) and returns its
// full JSONL event stream.
func fig3Trace(t *testing.T) []byte {
	return runTrace(t, scenario.Spec{Experiment: "fig3", RateBps: 4e6, RTTMs: 40, PhaseDurationS: 6, Seed: 1})
}

// duelTrace runs one contention cell chosen to cross as many hot-path
// branches as possible: fq_codel (DRR scheduling + per-flow CoDel AQM
// drops at dequeue) under the wifi-bursty fault profile (Gilbert-
// Elliott burst loss + jitter, which exercises the link's
// non-work-conserving retry timer).
func duelTrace(t *testing.T) []byte {
	return runTrace(t, scenario.Spec{Experiment: "duel", CCAs: []string{"cubic", "bbr"}, RateBps: 8e6, RTTMs: 40,
		Queue: string(core.QueueFQCoDel), DurationS: 5, FaultProfile: "wifi-bursty", FaultSeed: 7})
}

// runTrace runs one spec as `ccac run -trace` does, through the
// registry with a sampled tracer on the run's scope, and returns the
// JSONL event stream.
func runTrace(t *testing.T, sp scenario.Spec) []byte {
	t.Helper()
	var buf bytes.Buffer
	st := obs.NewStream(&buf)
	st.SetSampling(goldenSample)
	r := &scenario.Runner{NewScope: func(scenario.Spec) *obs.Scope { return &obs.Scope{Tracer: st} }}
	if res := r.Run(context.Background(), sp); res.Err != "" {
		t.Fatalf("%s: %s", sp.Experiment, res.Err)
	}
	if err := st.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	return buf.Bytes()
}

// compareGolden byte-compares got against the committed fixture,
// regenerating it under -update. On drift it reports the first
// differing line so the offending event is immediately visible.
func compareGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("updated %s (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden fixture %s (run `go test ./internal/sim/check -update` once to create it): %v", path, err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gotLines := bytes.Split(got, []byte("\n"))
	wantLines := bytes.Split(want, []byte("\n"))
	n := len(gotLines)
	if len(wantLines) < n {
		n = len(wantLines)
	}
	for i := 0; i < n; i++ {
		if !bytes.Equal(gotLines[i], wantLines[i]) {
			t.Fatalf("%s: trace drift at line %d:\n  got:  %s\n  want: %s\n(%d vs %d lines total)",
				name, i+1, clip(gotLines[i]), clip(wantLines[i]), len(gotLines), len(wantLines))
		}
	}
	t.Fatalf("%s: trace drift: line counts differ (%d vs %d); first %d lines identical",
		name, len(gotLines), len(wantLines), n)
}

func clip(b []byte) string {
	const max = 200
	if len(b) > max {
		return fmt.Sprintf("%s... (%d bytes)", b[:max], len(b))
	}
	return string(b)
}

// TestGoldenFig3Trace pins the byte-exact event stream of the Figure 3
// scenario: any change to event ordering, timestamps, or values in the
// engine, links, qdiscs, transport, or nimbus layers fails here.
func TestGoldenFig3Trace(t *testing.T) {
	compareGolden(t, "fig3.jsonl", fig3Trace(t))
}

// TestGoldenDuelTrace pins one duel cell through fq_codel and the
// wifi-bursty fault profile.
func TestGoldenDuelTrace(t *testing.T) {
	compareGolden(t, "duel.jsonl", duelTrace(t))
}

// TestGoldenTracesAreDeterministic guards the harness itself: two
// in-process runs must already agree, otherwise the fixtures would be
// flaky by construction.
func TestGoldenTracesAreDeterministic(t *testing.T) {
	if !bytes.Equal(fig3Trace(t), fig3Trace(t)) {
		t.Fatal("fig3 trace differs between two runs with identical config")
	}
}

// TestGoldenAccessTrace pins the one multi-hop cell: four subscribers'
// two-hop paths (access-0 … access-3, then core), eight flows whose
// acks return after the sum of their hops' delays.
func TestGoldenAccessTrace(t *testing.T) {
	compareGolden(t, "access.jsonl", runTrace(t, scenario.Spec{Experiment: "access", RateBps: 4e6, DurationS: 3}))
}

// TestGoldenCellularTrace pins the rate-driven link: the fading
// trace's rate steps on "cell" under a loss-based and a delay-based
// controller.
func TestGoldenCellularTrace(t *testing.T) {
	compareGolden(t, "cellular.jsonl", runTrace(t, scenario.Spec{Experiment: "cellular", RateBps: 4e6, DurationS: 4,
		CCAs: []string{"cubic", "nimbus"}, Seed: 3}))
}

// TestGoldenJitterTrace pins the jitter ablation's three queues (FIFO,
// the token-bucket shaper, fair queueing), each carrying a smooth CBR
// flow beside an on-off Cubic source.
func TestGoldenJitterTrace(t *testing.T) {
	compareGolden(t, "jitter.jsonl", runTrace(t, scenario.Spec{Experiment: "jitter", DurationS: 1}))
}
