package scenario_test

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/scenario"
)

// TestRegisteredDefaultsResolve resolves an empty spec against each
// registration's Defaults and compares the result, key by key, with
// the experiment's default link and sizes: fig3 runs a 1-BDP buffer,
// and duel reno against bbr, for a spec file as for `ccac run`. Seeds,
// faults and a huntcell's Cross are never filled.
func TestRegisteredDefaultsResolve(t *testing.T) {
	five := []string{"reno", "bbr", "video", "short", "cbr"}
	want := map[string]scenario.Spec{
		"access":     {RateBps: 50e6, DurationS: 30},
		"accesslink": {RateBps: 100e6, RTTMs: 30, Queue: "droptail", DurationS: 60, CCAs: []string{"reno"}},
		"buffer":     {DurationS: 30},
		"cellular": {RateBps: 20e6, RTTMs: 50, DurationS: 60,
			CCAs: []string{"cubic", "bbr", "vegas", "copa", "nimbus"}},
		"duel": {CCAs: []string{"reno", "bbr"}, RateBps: 48e6, RTTMs: 40, Queue: "droptail", BufferBDP: 2,
			DurationS: 30},
		"fig1":     {RateBps: 48e6, RTTMs: 40, BufferBDP: 2, DurationS: 60},
		"fig2":     {},
		"fig3":     {RateBps: 48e6, RTTMs: 100, BufferBDP: 1, PhaseDurationS: 45, Phases: five},
		"huntcell": {CCAs: []string{"reno"}, RateBps: 16e6, RTTMs: 30, Queue: "droptail", BufferBDP: 1},
		"jitter":   {DurationS: 30},
		"manyflow": {CCAs: []string{"reno", "cubic"}, Flows: 100},
		"oracle":   {Trials: 30, DurationS: 40},
		"pulse":    {DurationS: 30},
		"subpkt":   {Flows: 8, DurationS: 20},
		"tslp":     {RateBps: 48e6, RTTMs: 50, DurationS: 40},
	}
	for _, name := range scenario.Names() {
		if strings.HasPrefix(name, "test-") {
			continue // the runner tests' own registrations
		}
		w, ok := want[name]
		if !ok {
			t.Errorf("%s: registered, but this test has no default table for it", name)
			continue
		}
		exp, err := scenario.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		got, err := scenario.Resolve(scenario.Spec{Experiment: name}, exp.Defaults)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		w.Experiment = name
		g, wv := reflect.ValueOf(got), reflect.ValueOf(w)
		for i := 0; i < g.NumField(); i++ {
			if !reflect.DeepEqual(g.Field(i).Interface(), wv.Field(i).Interface()) {
				t.Errorf("%s: %s = %v, want %v", name, g.Type().Field(i).Name, g.Field(i), wv.Field(i))
			}
		}
	}
}
