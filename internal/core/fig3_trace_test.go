package core

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/scenario"
)

// TestFig3TracedRunLog is the tentpole acceptance check: a traced fig3
// run produces a JSONL run log (manifest + events + summary) that
// re-reads cleanly and is consistent with the run's own summary stats.
func TestFig3TracedRunLog(t *testing.T) {
	sp := scenario.Spec{PhaseDurationS: 10, Phases: []string{"reno", "cbr"}, Seed: 3}

	want := obs.Manifest{Tool: "ccac/fig3", Seed: sp.Seed,
		RateBps: 48e6, Phases: sp.Phases}
	var buf bytes.Buffer
	w, err := obs.NewRunLogWriter(&buf, want)
	if err != nil {
		t.Fatal(err)
	}
	tr := w.Tracer()
	tr.SetSampling(16) // keep the log small; control events are unaffected
	reg := obs.NewRegistry()
	res, err := runFig3(sp, &obs.Scope{Reg: reg, Tracer: tr})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(res.Summary()); err != nil {
		t.Fatal(err)
	}

	log, err := obs.ReadRunLog(&buf)
	if err != nil {
		t.Fatalf("run log does not re-read: %v", err)
	}

	// Manifest round-trips the run's configuration.
	if log.Manifest.Tool != want.Tool || log.Manifest.Seed != want.Seed ||
		log.Manifest.RateBps != want.RateBps {
		t.Errorf("manifest mismatch: got %+v want %+v", log.Manifest, want)
	}
	if len(log.Manifest.Phases) != 2 || log.Manifest.Phases[0] != "reno" {
		t.Errorf("manifest phases: %v", log.Manifest.Phases)
	}

	if len(log.Events) == 0 {
		t.Fatal("no events in run log")
	}
	// Timestamps are sim-time and monotone per source. (The estimator
	// stamps events with the sample-interval end, which can trail the
	// engine clock by a few intervals during catch-up, so the merged
	// stream is only near-sorted globally.)
	lastBySrc := map[string]time.Duration{}
	horizon := 2 * phaseDuration(sp)
	counts := map[string]int64{}
	for i, ev := range log.Events {
		if ev.At < lastBySrc[ev.Src] {
			t.Fatalf("event %d (%s from %q) at %v before %v: timestamps not monotone sim-time",
				i, ev.Type, ev.Src, ev.At, lastBySrc[ev.Src])
		}
		if ev.At > horizon {
			t.Fatalf("event %d at %v beyond run horizon %v: not sim-time", i, ev.At, horizon)
		}
		lastBySrc[ev.Src] = ev.At
		counts[ev.Type.String()]++
	}
	for _, typ := range []string{"enqueue", "send", "ack", "cwnd", "eta", "pulse"} {
		if counts[typ] == 0 {
			t.Errorf("no %q events in run log (have %v)", typ, counts)
		}
	}

	if log.Summary == nil {
		t.Fatal("no summary line")
	}
	// Summary event counts are the tracer's true (pre-sampling) counts:
	// they must match the retained count exactly for control events and
	// dominate it for sampled bulk events.
	if got := log.Summary.EventCounts["eta"]; got != counts["eta"] {
		t.Errorf("summary eta count %d != retained %d (control events must not be sampled)", got, counts["eta"])
	}
	if got := log.Summary.EventCounts["send"]; got < counts["send"] {
		t.Errorf("summary send count %d < retained %d", got, counts["send"])
	}

	// The summary's metrics agree with the in-memory result.
	sum := res.Summary()
	for k, v := range sum.Metrics {
		if got := log.Summary.Metrics[k]; got != v {
			t.Errorf("summary metric %s = %v, want %v", k, got, v)
		}
	}
	// One elasticity window per EvEta event: the trace and the result's
	// eta series describe the same run.
	if got := int64(len(res.Eta)); log.Summary.EventCounts["eta"] != got {
		t.Errorf("eta events %d != elasticity windows %d", log.Summary.EventCounts["eta"], got)
	}

	// The registry saw the run too: the engine and link gauges are live.
	snap := map[string]float64{}
	for _, p := range reg.Snapshot() {
		snap[p.Name] = p.Value
	}
	if snap["sim.engine.events"] == 0 {
		t.Error("engine event counter not registered or zero")
	}
	if snap["sim.link.sent_packets"] == 0 {
		t.Error("link sent_packets gauge not registered or zero")
	}
	if reg.Histogram("flow.rtt_ms", "flow=1", nil).Count() == 0 {
		t.Error("probe flow RTT histogram empty")
	}
}
