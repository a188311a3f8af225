package core

import (
	"fmt"
	"io"

	"repro/internal/mlab"
)

// Fig2Config parameterizes the M-Lab passive-analysis experiment.
type Fig2Config struct {
	// Generator configures the synthetic NDT dataset (default: 9,984
	// flows, the paper's June 2023 query size).
	Generator mlab.GeneratorConfig
	// Workers is the analysis fan-out (default 1: the sweep runner
	// already parallelizes across scenarios). The outcome is identical
	// for every worker count, so it is execution detail, not spec.
	Workers int `json:"-"`
}

// Fig2Result bundles the dataset-level outcome.
type Fig2Result struct {
	Config     Fig2Config
	Analysis   *mlab.Analysis
	Validation mlab.Validation
}

func (c Fig2Config) streamOptions(keepResults bool) mlab.StreamOptions {
	workers := c.Workers
	if workers == 0 {
		workers = 1
	}
	return mlab.StreamOptions{Workers: workers, KeepResults: keepResults}
}

// RunFig2 generates the synthetic NDT dataset and runs the paper's
// §3.1 pipeline over it: filter application-limited, receiver-limited,
// and cellular flows, then search the remainder's throughput traces
// for level shifts. Generation and analysis are pipelined record by
// record — the dataset is never materialized.
func RunFig2(cfg Fig2Config) (*Fig2Result, error) {
	src := mlab.NewGenSource(cfg.Generator)
	an, err := mlab.AnalyzeStream(src, mlab.AnalysisConfig{}, cfg.streamOptions(true))
	if err != nil {
		return nil, err
	}
	return &Fig2Result{Config: cfg, Analysis: an, Validation: an.Validate()}, nil
}

// AnalyzeFig2Stream runs the pipeline over a record stream in the
// aggregate mode: per-flow results are not retained, so memory is
// O(cfg.Workers x flow size) plus 8 B per accepted shift magnitude.
func AnalyzeFig2Stream(src mlab.RecordSource, cfg Fig2Config) (*Fig2Result, error) {
	an, err := mlab.AnalyzeStream(src, mlab.AnalysisConfig{}, cfg.streamOptions(false))
	if err != nil {
		return nil, err
	}
	return &Fig2Result{Config: cfg, Analysis: an, Validation: an.Validate()}, nil
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
