package hunt

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/core"
	"repro/internal/scenario"
)

// CorpusEntry is one discovered pathology, checked into
// internal/hunt/testdata/corpus as a regression pin: the genome, the
// fixed params it was evaluated under, and the exact score and
// contention classification it produced. The tier-1 corpus test
// replays every entry and fails on any drift — a change to the
// simulator, a CCA, or the estimator that shifts a pinned pathology
// is a finding, not noise.
type CorpusEntry struct {
	Name      string  `json:"name"`
	Objective string  `json:"objective"`
	Params    Params  `json:"params"`
	Genome    Genome  `json:"genome"`
	SpecHash  string  `json:"spec_hash"`
	Score     float64 `json:"score"`
	Class     string  `json:"class"`
}

// Classify names the contention pathology an outcome exhibits, per
// objective family. Victim objectives grade the harm/fairness damage;
// probe objectives grade the estimator's verdicts; the flip objective
// compares the faulted run against its clean twin.
func Classify(obj Objective, faulted, clean *core.HuntCellResult) string {
	switch {
	case obj.Twin:
		if clean == nil {
			return "stable"
		}
		flips := 0
		for i, p := range faulted.Phases {
			if i < len(clean.Phases) && p.Decided && clean.Phases[i].Decided &&
				p.ProbeElastic != clean.Phases[i].ProbeElastic {
				flips++
			}
		}
		if flips > 0 {
			return "verdict-flipped"
		}
		return "stable"
	case obj.Probe:
		switch {
		case faulted.Decided == 0:
			return "undecided"
		case faulted.Misclassified > 0:
			return "probe-misled"
		default:
			return "probe-correct"
		}
	default:
		switch {
		case faulted.Harm >= 0.8:
			return "starved"
		case faulted.Harm >= 0.3:
			return "harmed"
		case faulted.Jain < 0.8:
			return "skewed"
		default:
			return "benign"
		}
	}
}

// specsFor returns the evaluation spec list for a (genome, params)
// pair under the objective: the decoded spec, plus the fault-stripped
// twin for twin objectives.
func specsFor(obj Objective, g Genome, p Params) []scenario.Spec {
	p.Probe = obj.Probe
	sp := g.Decode(p)
	if !obj.Twin {
		return []scenario.Spec{sp}
	}
	clean := sp
	clean.Fault = nil
	return []scenario.Spec{sp, clean}
}

// ReplayEntry re-evaluates a corpus entry and returns the score and
// classification the replay produced. Callers compare them to the
// entry's pinned values.
func ReplayEntry(ctx context.Context, runner *scenario.Runner, e CorpusEntry) (float64, string, error) {
	obj, err := LookupObjective(e.Objective)
	if err != nil {
		return 0, "", err
	}
	if runner == nil {
		runner = &scenario.Runner{}
	}
	specs := specsFor(obj, e.Genome, e.Params)
	if got := specs[0].Hash(); got != e.SpecHash {
		return 0, "", fmt.Errorf("hunt: corpus %q: spec hash %s, pinned %s (genome decode drifted)", e.Name, got, e.SpecHash)
	}
	results, err := runner.Sweep(ctx, specs)
	if err != nil {
		return 0, "", fmt.Errorf("hunt: corpus %q: %w", e.Name, err)
	}
	faulted, err := DecodeOutcome(results[0])
	if err != nil {
		return 0, "", fmt.Errorf("hunt: corpus %q: %w", e.Name, err)
	}
	var clean *core.HuntCellResult
	if obj.Twin {
		if clean, err = DecodeOutcome(results[1]); err != nil {
			return 0, "", fmt.Errorf("hunt: corpus %q twin: %w", e.Name, err)
		}
	}
	return sanitize(obj.Score(faulted, clean)), Classify(obj, faulted, clean), nil
}

// NewEntry replays a hunt result's best genome and packages it as a
// corpus entry with its score and classification pinned.
func NewEntry(ctx context.Context, runner *scenario.Runner, res *Result, name string) (CorpusEntry, error) {
	e := CorpusEntry{
		Name:      name,
		Objective: res.Objective,
		Params:    res.Params,
		Genome:    res.Best,
		SpecHash:  res.BestHash,
	}
	score, class, err := ReplayEntry(ctx, runner, e)
	if err != nil {
		return CorpusEntry{}, err
	}
	e.Score, e.Class = score, class
	return e, nil
}

// SaveEntry writes the entry under dir as <name>.json (canonical
// encoding, trailing newline) and returns the path.
func SaveEntry(dir string, e CorpusEntry) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("hunt: corpus: %w", err)
	}
	b, err := scenario.CanonicalJSON(e)
	if err != nil {
		return "", fmt.Errorf("hunt: corpus: %w", err)
	}
	path := filepath.Join(dir, e.Name+".json")
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return "", fmt.Errorf("hunt: corpus: %w", err)
	}
	return path, nil
}

// LoadCorpus reads every *.json entry under dir, sorted by filename.
// A missing directory is an empty corpus, not an error.
func LoadCorpus(dir string) ([]CorpusEntry, error) {
	names, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, fmt.Errorf("hunt: corpus: %w", err)
	}
	sort.Strings(names)
	var entries []CorpusEntry
	for _, path := range names {
		b, err := os.ReadFile(path)
		if err != nil {
			return nil, fmt.Errorf("hunt: corpus: %w", err)
		}
		var e CorpusEntry
		if err := json.Unmarshal(b, &e); err != nil {
			return nil, fmt.Errorf("hunt: corpus %s: %w", path, err)
		}
		entries = append(entries, e)
	}
	return entries, nil
}
