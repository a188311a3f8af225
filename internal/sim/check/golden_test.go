package check_test

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
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
	t.Helper()
	var buf bytes.Buffer
	st := obs.NewStream(&buf)
	st.SetSampling(goldenSample)
	_, err := core.RunFig3(core.Fig3Config{
		RateBps:       4e6,
		OneWayDelay:   20 * time.Millisecond,
		PhaseDuration: 6 * time.Second,
		Seed:          1,
		Obs:           &obs.Scope{Tracer: st},
	})
	if err != nil {
		t.Fatalf("RunFig3: %v", err)
	}
	if err := st.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	return buf.Bytes()
}

// duelTrace runs one contention cell chosen to cross as many hot-path
// branches as possible: fq_codel (DRR scheduling + per-flow CoDel AQM
// drops at dequeue) under the wifi-bursty fault profile (Gilbert-
// Elliott burst loss + jitter, which exercises the link's
// non-work-conserving retry timer).
func duelTrace(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	st := obs.NewStream(&buf)
	st.SetSampling(goldenSample)
	_, err := core.RunDuel(core.DuelConfig{
		CCA1:         "cubic",
		CCA2:         "bbr",
		RateBps:      8e6,
		OneWayDelay:  20 * time.Millisecond,
		Queue:        core.QueueFQCoDel,
		Duration:     5 * time.Second,
		FaultProfile: "wifi-bursty",
		FaultSeed:    7,
		Obs:          &obs.Scope{Tracer: st},
	})
	if err != nil {
		t.Fatalf("RunDuel: %v", err)
	}
	if err := st.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	return buf.Bytes()
}

// runTrace runs one cell with a sampled tracer on its scope and
// returns the JSONL event stream.
func runTrace(t *testing.T, run func(*obs.Scope) error) []byte {
	t.Helper()
	var buf bytes.Buffer
	st := obs.NewStream(&buf)
	st.SetSampling(goldenSample)
	if err := run(&obs.Scope{Tracer: st}); err != nil {
		t.Fatal(err)
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
	compareGolden(t, "access.jsonl", runTrace(t, func(sc *obs.Scope) error {
		_, err := core.RunAccess(core.AccessConfig{AccessRateBps: 4e6, Duration: 3 * time.Second, Obs: sc})
		return err
	}))
}

// TestGoldenCellularTrace pins the rate-driven link: the fading
// trace's rate steps on "cell" under a loss-based and a delay-based
// controller.
func TestGoldenCellularTrace(t *testing.T) {
	compareGolden(t, "cellular.jsonl", runTrace(t, func(sc *obs.Scope) error {
		_, err := core.RunCellular(core.CellularConfig{
			MeanRateBps: 4e6, Duration: 4 * time.Second, CCAs: []string{"cubic", "nimbus"}, Seed: 3, Obs: sc,
		})
		return err
	}))
}

// TestGoldenJitterTrace pins the jitter ablation's three queues (FIFO,
// the token-bucket shaper, fair queueing), each carrying a smooth CBR
// flow beside an on-off Cubic source.
func TestGoldenJitterTrace(t *testing.T) {
	compareGolden(t, "jitter.jsonl", runTrace(t, func(sc *obs.Scope) error {
		_, err := core.RunJitter(core.JitterConfig{Duration: time.Second, Obs: sc})
		return err
	}))
}
