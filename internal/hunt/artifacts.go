package hunt

import (
	"context"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/obs"
	"repro/internal/scenario"
)

// WriteArtifacts persists a hunt's worst scenario as two replayable
// files under dir, both named by the spec's content hash:
//
//	<hash>.spec.json    the canonical spec (ccac sweep / replay input)
//	<hash>.trace.jsonl  a golden run log (manifest + sampled events +
//	                    summary) from re-running the spec
//
// The trace is deterministic — same spec, same bytes — so CI can
// byte-diff reruns of a pinned hunt.
func WriteArtifacts(ctx context.Context, dir string, res *Result) (specPath, tracePath string, err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", "", fmt.Errorf("hunt: artifacts: %w", err)
	}
	sp := res.BestSpec
	hash := res.BestHash

	b, err := scenario.CanonicalJSON(sp)
	if err != nil {
		return "", "", fmt.Errorf("hunt: artifacts: %w", err)
	}
	specPath = filepath.Join(dir, hash+".spec.json")
	if err := os.WriteFile(specPath, append(b, '\n'), 0o644); err != nil {
		return "", "", fmt.Errorf("hunt: artifacts: %w", err)
	}

	tracePath = filepath.Join(dir, hash+".trace.jsonl")
	if err := writeGoldenTrace(ctx, tracePath, sp, res); err != nil {
		return "", "", err
	}
	return specPath, tracePath, nil
}

// goldenTraceSampling keeps 1-in-N bulk events (control events are
// always kept), matching the repo's other golden traces.
const goldenTraceSampling = 32

func writeGoldenTrace(ctx context.Context, path string, sp scenario.Spec, res *Result) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("hunt: golden trace: %w", err)
	}
	defer f.Close()
	m := sp.Manifest()
	m.Extra["objective"] = res.Objective
	m.Extra["artifact"] = "hunt-golden"
	log, err := obs.NewRunLogWriter(f, m)
	if err != nil {
		return fmt.Errorf("hunt: golden trace: %w", err)
	}
	tr := log.Tracer()
	tr.SetSampling(goldenTraceSampling)
	r := &scenario.Runner{NewScope: func(scenario.Spec) *obs.Scope { return &obs.Scope{Tracer: tr} }}
	if run := r.Run(ctx, sp); run.Err != "" {
		return fmt.Errorf("hunt: golden trace: %s", run.Err)
	}
	if err := log.Close(obs.Summary{
		Metrics: map[string]float64{"best_score": res.BestScore},
	}); err != nil {
		return fmt.Errorf("hunt: golden trace: %w", err)
	}
	return nil
}
