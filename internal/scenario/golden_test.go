package scenario_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	_ "repro/internal/core" // registers every experiment
	"repro/internal/faults"
	"repro/internal/scenario"
	"repro/internal/traffic"
)

// -update regenerates testdata/experiments.golden from the current
// behaviour. Only do that for an intended result change; a refactor
// must leave the file untouched.
var update = flag.Bool("update", false, "regenerate testdata/experiments.golden")

// goldenSpecs is one short run (or a few) of every registered
// experiment, sized so the whole set stays within a few seconds. The
// cells that share internal/core's cross-traffic, phasing and verdict
// code get the variants that reach each branch of it: every default
// fig3 phase, a fault profile, huntcell's victim and probe modes, an
// inline oscillating fault, and oracle/tslp/pulse/buffer runs long
// enough that every scored elasticity window is non-empty.
var goldenSpecs = []struct {
	name string
	spec scenario.Spec
}{
	{"fig1", scenario.Spec{Experiment: "fig1", DurationS: 2}},
	{"fig2", scenario.Spec{Experiment: "fig2", Flows: 300, Seed: 3}},
	{"fig3", scenario.Spec{Experiment: "fig3", Seed: 1, FaultSeed: 1, RateBps: 48e6, RTTMs: 100,
		PhaseDurationS: 8, Phases: []string{"reno", "bbr", "video", "short", "cbr"}}},
	{"fig3-faults", scenario.Spec{Experiment: "fig3", Seed: 2, FaultSeed: 5, RateBps: 24e6, RTTMs: 60,
		PhaseDurationS: 8, Phases: []string{"cubic", "idle", "short"}, FaultProfile: "wifi-bursty"}},
	{"duel-faults", scenario.Spec{Experiment: "duel", CCAs: []string{"reno", "bbr"}, DurationS: 3,
		Queue: "fq_codel", FaultProfile: "flaky-cellular", FaultSeed: 4}},
	{"oracle", scenario.Spec{Experiment: "oracle", Trials: 7, DurationS: 14, Seed: 2}},
	{"tslp", scenario.Spec{Experiment: "tslp", DurationS: 8, Seed: 1, RateBps: 24e6}},
	{"cellular", scenario.Spec{Experiment: "cellular", DurationS: 3, Seed: 1, CCAs: []string{"cubic", "nimbus"}}},
	// No other row, trace or corpus entry runs copa.
	{"cellular-copa", scenario.Spec{Experiment: "cellular", DurationS: 3, Seed: 1, CCAs: []string{"copa", "nimbus"}}},
	{"access", scenario.Spec{Experiment: "access", DurationS: 2}},
	{"pulse", scenario.Spec{Experiment: "pulse", DurationS: 12}},
	{"buffer", scenario.Spec{Experiment: "buffer", DurationS: 12}},
	{"subpkt", scenario.Spec{Experiment: "subpkt", DurationS: 5, Flows: 4}},
	{"jitter", scenario.Spec{Experiment: "jitter", DurationS: 3}},
	{"huntcell-victim", scenario.Spec{Experiment: "huntcell", CCAs: []string{"cubic"}, Seed: 3, FaultSeed: 2,
		FaultProfile: "wifi-bursty", Queue: "fq",
		Cross: []traffic.Phase{{Kind: "bbr", DurS: 4}, {Kind: "idle", DurS: 2}, {Kind: "cbr", DurS: 3}}}},
	{"huntcell-probe", scenario.Spec{Experiment: "huntcell", Probe: true, Seed: 1,
		Cross: []traffic.Phase{{Kind: "reno", DurS: 9}, {Kind: "cbr", DurS: 8}, {Kind: "aimd", DurS: 7}}}},
	{"huntcell-fault", scenario.Spec{Experiment: "huntcell", CCAs: []string{"reno"}, Seed: 7, FaultSeed: 7,
		RateBps: 12e6, RTTMs: 20,
		Fault: &faults.Config{
			GE:      &faults.GESpec{PGoodBad: 0.01, PBadGood: 0.3, LossBad: 0.5},
			Outages: []faults.WindowSpec{{StartS: 6, EndS: 6.5}},
			OscAmp:  0.3, OscPeriodS: 2, OscPhase: 0.25,
		},
		Cross: []traffic.Phase{{Kind: "video", DurS: 4}, {Kind: "short", DurS: 4},
			{Kind: "vegas", DurS: 3}, {Kind: "short", DurS: 2}}}},
	{"manyflow", scenario.Spec{Experiment: "manyflow", CCAs: []string{"reno", "cubic"}, Flows: 100, DurationS: 2, Seed: 1}},
	// No other row runs these two named profiles.
	{"duel-dsl-noise", scenario.Spec{Experiment: "duel", CCAs: []string{"cubic", "reno"}, DurationS: 3,
		FaultProfile: "dsl-noise", FaultSeed: 6}},
	{"duel-satellite-jitter", scenario.Spec{Experiment: "duel", CCAs: []string{"bbr", "cubic"}, DurationS: 3,
		Queue: "fq", FaultProfile: "satellite-jitter", FaultSeed: 8}},
	{"accesslink", scenario.Spec{Experiment: "accesslink", CCAs: []string{"bbr"}, Queue: "fq_codel", DurationS: 12, Seed: 42}},
}

// TestExperimentGoldens pins the bytes every registered experiment
// produces — the canonical RunResult record and the rendered table —
// so a refactor of the cell builders can be shown to change nothing.
func TestExperimentGoldens(t *testing.T) {
	covered := map[string]bool{}
	specs := make([]scenario.Spec, len(goldenSpecs))
	for i, g := range goldenSpecs {
		specs[i] = g.spec
		covered[g.spec.Experiment] = true
	}
	for _, name := range scenario.Names() {
		// The package's own tests register "test-*" fixtures.
		if !covered[name] && !strings.HasPrefix(name, "test-") {
			t.Errorf("registered experiment %q has no golden spec", name)
		}
	}

	r := &scenario.Runner{Workers: 2}
	results, err := r.Sweep(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	for i, res := range results {
		name := goldenSpecs[i].name
		if res.Err != "" {
			t.Fatalf("%s: %s", name, res.Err)
		}
		rec, err := scenario.CanonicalJSON(res)
		if err != nil {
			t.Fatal(err)
		}
		exp, err := scenario.Lookup(res.Spec.Experiment)
		if err != nil {
			t.Fatal(err)
		}
		var table bytes.Buffer
		exp.Table(&table, res.Value())
		if table.Len() == 0 {
			t.Errorf("%s: empty table", name)
		}
		fmt.Fprintf(&got, "%s result=%x table=%x\n", name, sha256.Sum256(rec), sha256.Sum256(table.Bytes()))
	}

	path := filepath.Join("testdata", "experiments.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("updated %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run `go test ./internal/scenario -run TestExperimentGoldens -update` once): %v", err)
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	wantLines := strings.Split(string(want), "\n")
	for i, line := range strings.Split(got.String(), "\n") {
		if i >= len(wantLines) || line != wantLines[i] {
			t.Errorf("drift at line %d:\n got  %s\n want %s", i+1, line, at(wantLines, i))
		}
	}
}

func at(lines []string, i int) string {
	if i < len(lines) {
		return lines[i]
	}
	return "<missing>"
}
