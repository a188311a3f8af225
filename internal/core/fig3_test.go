package core

import (
	"testing"

	"repro/internal/scenario"
)

// TestFig3Shape verifies the paper's Figure 3 shape: elasticity is
// clearly higher during backlogged-CCA phases (reno, bbr) than during
// application-limited phases (video, short flows, CBR).
func TestFig3Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("long simulation")
	}
	res, err := runFig3(scenario.Spec{PhaseDurationS: 30, Seed: 7}, nil)
	if err != nil {
		t.Fatal(err)
	}
	etas := map[string]float64{}
	for _, p := range res.Phases {
		etas[p.Name] = p.MeanEta
		t.Logf("phase %-6s mean-eta=%.3f max-eta=%.3f elastic=%v cross=%s probe=%s",
			p.Name, p.MeanEta, p.MaxEta, p.Elastic, FmtBps(p.CrossTputBps), FmtBps(p.ProbeTputBps))
	}
	for _, elastic := range []string{"reno", "bbr"} {
		for _, inelastic := range []string{"video", "short", "cbr"} {
			if etas[elastic] <= etas[inelastic] {
				t.Errorf("eta[%s]=%.3f should exceed eta[%s]=%.3f", elastic, etas[elastic], inelastic, etas[inelastic])
			}
		}
	}
}
