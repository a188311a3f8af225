package hunt

import (
	"math"
	"testing"

	"repro/internal/core"
)

func TestSanitize(t *testing.T) {
	cases := []struct {
		in, want float64
	}{
		{math.NaN(), 0},
		{math.Inf(1), 0},
		{math.Inf(-1), 0},
		{-0.5, 0},
		{0, 0},
		{0.5, 0.5},
		{1.25, 1.25},
		{3, 2},
	}
	for _, tc := range cases {
		if got := sanitize(tc.in); got != tc.want {
			t.Errorf("sanitize(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

func TestClamp01(t *testing.T) {
	cases := []struct {
		in, want float64
	}{
		{math.NaN(), 0},
		{math.Inf(1), 1},
		{-1, 0},
		{0.25, 0.25},
		{1.5, 1},
	}
	for _, tc := range cases {
		if got := clamp01(tc.in); got != tc.want {
			t.Errorf("clamp01(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

func TestCrossShare(t *testing.T) {
	cases := []struct {
		name string
		o    core.HuntCellResult
		want float64
	}{
		// Zero fair share is the zero-denominator case: guarded to 0,
		// never NaN or Inf.
		{"zero-fair-share", core.HuntCellResult{CrossTputBps: 8e6}, 0},
		{"nan-tput", core.HuntCellResult{FairShareBps: 8e6, CrossTputBps: math.NaN()}, 0},
		{"negative", core.HuntCellResult{FairShareBps: 8e6, CrossTputBps: -1}, 0},
		{"half-link", core.HuntCellResult{FairShareBps: 8e6, CrossTputBps: 8e6}, 0.5},
		// Above nominal (oscillation headroom): deliberately unclamped.
		{"above-nominal", core.HuntCellResult{FairShareBps: 8e6, CrossTputBps: 24e6}, 1.5},
	}
	for _, tc := range cases {
		got := crossShare(&tc.o)
		if math.IsNaN(got) || math.IsInf(got, 0) {
			t.Errorf("%s: crossShare = %v, want finite", tc.name, got)
		}
		if got != tc.want {
			t.Errorf("%s: crossShare = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestObjectivesFiniteOnDegenerateOutcomes feeds every objective the
// outcomes a broken evaluation could produce — NaN metrics, zero
// denominators, empty phases — and requires a finite, non-negative
// score after sanitize. This is the guard that keeps one degenerate
// simulation from poisoning a whole hunt's selection.
func TestObjectivesFiniteOnDegenerateOutcomes(t *testing.T) {
	nan := math.NaN()
	degenerates := []*core.HuntCellResult{
		{},
		{Harm: nan, Jain: nan, Util: nan, MainTputBps: nan, CrossTputBps: nan, FairShareBps: nan},
		{Harm: math.Inf(1), Jain: math.Inf(-1), FairShareBps: 8e6, CrossTputBps: math.Inf(1)},
		{Decided: 0, Misclassified: 0},
		{Decided: 2, Misclassified: 1, Phases: []core.HuntCellPhase{
			{Decided: true, TruthElastic: true, MeanEta: nan},
			{Decided: true, MeanEta: nan},
		}},
	}
	for _, obj := range Objectives() {
		for i, o := range degenerates {
			for _, clean := range []*core.HuntCellResult{nil, o, {}} {
				if obj.Twin && clean == nil {
					// Twin objectives score 0 without a twin; covered below.
					continue
				}
				got := sanitize(obj.Score(o, clean))
				if math.IsNaN(got) || math.IsInf(got, 0) || got < 0 || got > 2 {
					t.Errorf("%s: degenerate outcome %d: score = %v, want in [0, 2]", obj.Name, i, got)
				}
			}
		}
	}
}

func TestUnfairScoresDeadLinkZero(t *testing.T) {
	obj, err := LookupObjective("unfair")
	if err != nil {
		t.Fatal(err)
	}
	// A blackout that kills both flows hits Jain's zero-denominator
	// guard (index 0); the objective must score it 0, not crown it.
	dead := &core.HuntCellResult{MainTputBps: 0, CrossTputBps: 0, Jain: 0, FairShareBps: 8e6}
	if got := obj.Score(dead, nil); got != 0 {
		t.Errorf("dead link scored %v, want 0", got)
	}
	// Total asymmetry with a live aggressor scores high.
	skew := &core.HuntCellResult{MainTputBps: 0, CrossTputBps: 14e6, Jain: 0.5, FairShareBps: 8e6}
	if got := obj.Score(skew, nil); got <= 1 {
		t.Errorf("starved victim + thriving cross scored %v, want > 1", got)
	}
}

func TestFlipScoreGuards(t *testing.T) {
	obj, err := LookupObjective("flip")
	if err != nil {
		t.Fatal(err)
	}
	phases := []core.HuntCellPhase{{Decided: true, ProbeElastic: true, MeanEta: 0.8}}
	faulted := &core.HuntCellResult{Phases: phases}
	if got := obj.Score(faulted, nil); got != 0 {
		t.Errorf("nil twin scored %v, want 0", got)
	}
	if got := obj.Score(faulted, &core.HuntCellResult{}); got != 0 {
		t.Errorf("phase-count mismatch scored %v, want 0", got)
	}
	undecided := &core.HuntCellResult{Phases: []core.HuntCellPhase{{Decided: false}}}
	if got := obj.Score(undecided, undecided); got != 0 {
		t.Errorf("no compared phases scored %v, want 0", got)
	}
	flipped := &core.HuntCellResult{Phases: []core.HuntCellPhase{{Decided: true, ProbeElastic: false, MeanEta: 0.2}}}
	clean := &core.HuntCellResult{Phases: []core.HuntCellPhase{{Decided: true, ProbeElastic: true, MeanEta: 0.8}}}
	if got := obj.Score(flipped, clean); got <= 1 {
		t.Errorf("full flip scored %v, want > 1", got)
	}
}

func TestElasticMissUndecidedScoresZero(t *testing.T) {
	obj, err := LookupObjective("elastic-miss")
	if err != nil {
		t.Fatal(err)
	}
	if got := obj.Score(&core.HuntCellResult{Decided: 0, Misclassified: 0}, nil); got != 0 {
		t.Errorf("undecided outcome scored %v, want 0", got)
	}
}

func TestLookupObjective(t *testing.T) {
	for _, name := range ObjectiveNames() {
		obj, err := LookupObjective(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if obj.Name != name || obj.Score == nil {
			t.Fatalf("%s: bad objective %+v", name, obj)
		}
		want := VictimBounds()
		if obj.Probe {
			want = ProbeBounds()
		}
		if obj.DefaultBounds() != want {
			t.Errorf("%s: DefaultBounds mismatch", name)
		}
	}
	if _, err := LookupObjective("nope"); err == nil {
		t.Error("unknown objective should error")
	}
}
