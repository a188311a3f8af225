package hunt

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/scenario"
	"repro/internal/traffic"
)

// TestCorpusReplay is the tier-1 regression pin: every pathology the
// hunt has checked into testdata/corpus must replay to exactly its
// pinned objective score and contention classification. Drift here
// means a simulator, CCA, or estimator change moved a known-bad
// scenario — which is a finding to examine, not noise to re-pin
// blindly.
func TestCorpusReplay(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations")
	}
	entries, err := LoadCorpus("testdata/corpus")
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) == 0 {
		t.Fatal("corpus is empty; expected checked-in pathologies under testdata/corpus")
	}
	runner := &scenario.Runner{}
	objectives := map[string]bool{}
	for _, e := range entries {
		e := e
		t.Run(e.Name, func(t *testing.T) {
			t.Parallel()
			score, class, err := ReplayEntry(context.Background(), runner, e)
			if err != nil {
				t.Fatal(err)
			}
			if score != e.Score {
				t.Errorf("score = %v, pinned %v", score, e.Score)
			}
			if class != e.Class {
				t.Errorf("class = %q, pinned %q", class, e.Class)
			}
		})
		objectives[e.Objective] = true
	}
	// The corpus should witness more than one objective family.
	if len(objectives) < 2 {
		t.Errorf("corpus covers %d objectives, want at least 2", len(objectives))
	}
}

// TestCorpusEntriesWellFormed validates the static shape without
// running simulations: parseable, named, hash-consistent genomes.
func TestCorpusEntriesWellFormed(t *testing.T) {
	entries, err := LoadCorpus("testdata/corpus")
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, e := range entries {
		if e.Name == "" || e.Objective == "" || e.SpecHash == "" || e.Class == "" {
			t.Errorf("entry %+v missing required fields", e)
		}
		if seen[e.Name] {
			t.Errorf("duplicate corpus entry name %q", e.Name)
		}
		seen[e.Name] = true
		obj, err := LookupObjective(e.Objective)
		if err != nil {
			t.Errorf("%s: %v", e.Name, err)
			continue
		}
		if err := e.Genome.Validate(obj.DefaultBounds()); err != nil {
			t.Errorf("%s: genome invalid: %v", e.Name, err)
		}
		if got := specsFor(obj, e.Genome, e.Params)[0].Hash(); got != e.SpecHash {
			t.Errorf("%s: decoded hash %s != pinned %s", e.Name, got, e.SpecHash)
		}
	}
}

func TestSaveLoadCorpusRoundTrip(t *testing.T) {
	dir := t.TempDir()
	e := CorpusEntry{
		Name:      "rt",
		Objective: "harm",
		Params:    Params{Seed: 1, FaultSeed: 2},
		Genome:    Genome{Cross: []traffic.Phase{{Kind: "idle", DurS: 3}}},
		SpecHash:  "abc",
		Score:     1.25,
		Class:     "starved",
	}
	if _, err := SaveEntry(dir, e); err != nil {
		t.Fatal(err)
	}
	entries, err := LoadCorpus(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("loaded %d entries, want 1", len(entries))
	}
	got := entries[0]
	if got.Name != e.Name || got.Score != e.Score || got.Class != e.Class || got.SpecHash != e.SpecHash {
		t.Errorf("round trip drifted: %+v", got)
	}
	// Missing directory is an empty corpus, not an error.
	empty, err := LoadCorpus(dir + "/nope")
	if err != nil || len(empty) != 0 {
		t.Errorf("missing dir: entries=%v err=%v", empty, err)
	}
}

func TestClassify(t *testing.T) {
	victim, _ := LookupObjective("harm")
	probe, _ := LookupObjective("elastic-miss")
	twin, _ := LookupObjective("flip")
	cases := []struct {
		name    string
		obj     Objective
		faulted *core.HuntCellResult
		clean   *core.HuntCellResult
		want    string
	}{
		{"starved", victim, &core.HuntCellResult{Harm: 0.9, Jain: 0.5}, nil, "starved"},
		{"harmed", victim, &core.HuntCellResult{Harm: 0.5, Jain: 0.9}, nil, "harmed"},
		{"skewed", victim, &core.HuntCellResult{Harm: 0.1, Jain: 0.6}, nil, "skewed"},
		{"benign", victim, &core.HuntCellResult{Harm: 0.1, Jain: 0.95}, nil, "benign"},
		{"undecided", probe, &core.HuntCellResult{}, nil, "undecided"},
		{"probe-misled", probe, &core.HuntCellResult{Decided: 2, Misclassified: 1}, nil, "probe-misled"},
		{"probe-correct", probe, &core.HuntCellResult{Decided: 2}, nil, "probe-correct"},
		{"no-twin", twin, &core.HuntCellResult{}, nil, "stable"},
		{"flipped", twin,
			&core.HuntCellResult{Phases: []core.HuntCellPhase{{Decided: true, ProbeElastic: true}}},
			&core.HuntCellResult{Phases: []core.HuntCellPhase{{Decided: true, ProbeElastic: false}}},
			"verdict-flipped"},
		{"stable", twin,
			&core.HuntCellResult{Phases: []core.HuntCellPhase{{Decided: true, ProbeElastic: true}}},
			&core.HuntCellResult{Phases: []core.HuntCellPhase{{Decided: true, ProbeElastic: true}}},
			"stable"},
	}
	for _, tc := range cases {
		if got := Classify(tc.obj, tc.faulted, tc.clean); got != tc.want {
			t.Errorf("%s: Classify = %q, want %q", tc.name, got, tc.want)
		}
	}
}
