package core

import (
	"encoding/json"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/scenario"
	"repro/internal/traffic"
)

// TestHuntCellDeterminism: the cell is the hunt's fitness function, so
// two runs of the same spec — inline faults, oscillating capacity,
// short flows and all — must agree to the last bit.
func TestHuntCellDeterminism(t *testing.T) {
	sp := scenario.Spec{
		CCAs: []string{"reno"},
		Cross: []traffic.Phase{
			{Kind: "cubic", DurS: 5},
			{Kind: "short", DurS: 4},
			{Kind: "idle", DurS: 3},
		},
		RateBps:   12e6,
		RTTMs:     20,
		Seed:      7,
		FaultSeed: 7,
		Fault: &faults.Config{
			GE:         &faults.GESpec{PGoodBad: 0.01, PBadGood: 0.3, LossBad: 0.5},
			Outages:    []faults.WindowSpec{{StartS: 6, EndS: 6.5}},
			OscAmp:     0.3,
			OscPeriodS: 2,
			OscPhase:   0.25,
		},
	}
	run := func() []byte {
		res, err := runSpec[*HuntCellResult](t, "huntcell", sp, nil)
		if err != nil {
			t.Fatalf("runHuntCell: %v", err)
		}
		b, err := json.Marshal(res)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		return b
	}
	a, b := run(), run()
	if string(a) != string(b) {
		t.Fatalf("non-deterministic huntcell result:\n%s\nvs\n%s", a, b)
	}
}

// TestHuntCellVictimMetrics checks the victim-mode shape: contiguous
// phase bounds and aggregates inside their definitional ranges.
func TestHuntCellVictimMetrics(t *testing.T) {
	res, err := runSpec[*HuntCellResult](t, "huntcell", scenario.Spec{
		Cross: []traffic.Phase{
			{Kind: "bbr", DurS: 8},
			{Kind: "idle", DurS: 4},
		},
		Seed: 1,
	}, nil)
	if err != nil {
		t.Fatalf("runHuntCell: %v", err)
	}
	if len(res.Phases) != 2 {
		t.Fatalf("phases = %d, want 2", len(res.Phases))
	}
	var at time.Duration
	for i, p := range res.Phases {
		if p.Start != at {
			t.Errorf("phase %d starts at %v, want %v", i, p.Start, at)
		}
		at = p.End
	}
	if at != 12*time.Second {
		t.Errorf("schedule ends at %v, want 12s", at)
	}
	if res.Harm < 0 || res.Harm > 1 {
		t.Errorf("harm = %v out of [0, 1]", res.Harm)
	}
	if res.Jain <= 0 || res.Jain > 1 {
		t.Errorf("jain = %v out of (0, 1]", res.Jain)
	}
	if res.MainTputBps <= 0 {
		t.Errorf("main throughput = %v, want > 0", res.MainTputBps)
	}
	if res.Util <= 0 || res.Util > 1.5 {
		t.Errorf("util = %v implausible", res.Util)
	}
	// The bbr phase should take a visible bite out of the victim
	// relative to the idle phase.
	if res.Phases[0].MainTputBps >= res.Phases[1].MainTputBps {
		t.Errorf("victim under bbr (%v) not slower than idle (%v)",
			res.Phases[0].MainTputBps, res.Phases[1].MainTputBps)
	}
}

// TestHuntCellProbeVerdicts: probe mode must deliver per-phase verdicts
// with the schedule's ground truth attached.
func TestHuntCellProbeVerdicts(t *testing.T) {
	res, err := runSpec[*HuntCellResult](t, "huntcell", scenario.Spec{
		Probe: true,
		Cross: []traffic.Phase{
			{Kind: "reno", DurS: 15},
			{Kind: "cbr", DurS: 15},
		},
		Seed: 1,
	}, nil)
	if err != nil {
		t.Fatalf("runHuntCell: %v", err)
	}
	if !res.Phases[0].TruthElastic || res.Phases[1].TruthElastic {
		t.Errorf("ground truth wrong: reno=%v cbr=%v",
			res.Phases[0].TruthElastic, res.Phases[1].TruthElastic)
	}
	if res.Decided == 0 {
		t.Fatal("no phase received a verdict in 15s phases")
	}
	for i, p := range res.Phases {
		if p.Decided && p.Windows == 0 {
			t.Errorf("phase %d decided with zero windows", i)
		}
	}
	if res.Misclassified > res.Decided {
		t.Errorf("misclassified %d > decided %d", res.Misclassified, res.Decided)
	}
}

// TestHuntCellInlineFaultPrecedence: a non-nil inline Fault must win
// over FaultProfile — even a bogus profile name is never looked up.
func TestHuntCellInlineFaultPrecedence(t *testing.T) {
	_, err := runSpec[*HuntCellResult](t, "huntcell", scenario.Spec{
		Cross:        []traffic.Phase{{Kind: "idle", DurS: 2}},
		Fault:        &faults.Config{LossProb: 0.01},
		FaultProfile: "no-such-profile",
	}, nil)
	if err != nil {
		t.Fatalf("inline fault should shadow the bogus profile name: %v", err)
	}
}

// TestHuntCellErrors exercises the validation edges.
func TestHuntCellErrors(t *testing.T) {
	cases := []struct {
		name string
		sp   scenario.Spec
	}{
		{"empty schedule", scenario.Spec{}},
		{"unknown kind", scenario.Spec{Cross: []traffic.Phase{{Kind: "warez", DurS: 5}}}},
		{"bad duration", scenario.Spec{Cross: []traffic.Phase{{Kind: "reno", DurS: -1}}}},
		{"bad victim", scenario.Spec{
			CCAs:  []string{"no-such-cca"},
			Cross: []traffic.Phase{{Kind: "idle", DurS: 2}},
		}},
		{"bad profile", scenario.Spec{
			Cross:        []traffic.Phase{{Kind: "idle", DurS: 2}},
			FaultProfile: "no-such-profile",
		}},
	}
	for _, tc := range cases {
		if _, err := runSpec[*HuntCellResult](t, "huntcell", tc.sp, nil); err == nil {
			t.Errorf("%s: expected an error", tc.name)
		}
	}
}
