package core

import (
	"fmt"
	"io"

	"repro/internal/mlab"
	"repro/internal/obs"
	"repro/internal/scenario"
)

func init() {
	scenario.Register(scenario.Experiment{
		Name:        "fig2",
		Description: "Figure 2 M-Lab pipeline: synthetic NDT dataset through the passive §3.1 analysis",
		Run:         run(runFig2),
		Table: func(w io.Writer, v any) {
			if r, ok := v.(*Fig2Result); ok {
				_ = r.WriteReport(w)
			}
		},
	})
}

// Fig2Result bundles the dataset-level outcome.
type Fig2Result struct {
	Analysis   *mlab.Analysis
	Validation mlab.Validation
}

// runFig2 generates the synthetic NDT dataset of the spec's flow count
// (default 9,984, the paper's June 2023 query size) and seed, and runs
// the paper's §3.1 pipeline over it: filter application-limited,
// receiver-limited, and cellular flows, then search the remainder's
// throughput traces for level shifts. Generation and analysis are
// pipelined record by record — the dataset is never materialized — on
// one worker: the sweep runner already parallelizes across scenarios.
func runFig2(sp scenario.Spec, _ *obs.Scope) (*Fig2Result, error) {
	src := mlab.NewGenSource(mlab.GeneratorConfig{Flows: sp.Flows, Seed: sp.Seed})
	return analyzeFig2(src, mlab.StreamOptions{Workers: 1, KeepResults: true})
}

// AnalyzeFig2Stream runs the pipeline over a record stream on the given
// number of workers (<= 0 means GOMAXPROCS) in the aggregate mode:
// per-flow results are not retained, so memory is O(workers x flow
// size) plus 8 B per accepted shift magnitude. The outcome is identical
// for every worker count.
func AnalyzeFig2Stream(src mlab.RecordSource, workers int) (*Fig2Result, error) {
	return analyzeFig2(src, mlab.StreamOptions{Workers: workers})
}

func analyzeFig2(src mlab.RecordSource, opts mlab.StreamOptions) (*Fig2Result, error) {
	an, err := mlab.AnalyzeStream(src, mlab.AnalysisConfig{}, opts)
	if err != nil {
		return nil, err
	}
	return &Fig2Result{Analysis: an, Validation: an.Validate()}, nil
}

// WriteReport renders the Figure 2 style report plus the ground-truth
// validation unavailable to the paper's real-data analysis. It returns
// the first error the underlying writer reported.
func (r *Fig2Result) WriteReport(w io.Writer) error {
	if err := r.Analysis.WriteReport(w); err != nil {
		return err
	}
	v := r.Validation
	if v.TruePos+v.FalseNeg+v.FalsePos+v.TrueNeg > 0 {
		if _, err := fmt.Fprintf(w, "\nlevel-shift detection vs ground truth (candidates only):\n"); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "  precision=%.3f recall=%.3f (tp=%d fp=%d fn=%d tn=%d)\n",
			v.Precision(), v.Recall(), v.TruePos, v.FalsePos, v.FalseNeg, v.TrueNeg); err != nil {
			return err
		}
	}
	return nil
}
