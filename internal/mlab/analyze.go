package mlab

import (
	"fmt"
	"io"
	"time"

	"repro/internal/changepoint"
	"repro/internal/stats"
)

// Category is the analysis pipeline's classification of a flow —
// assigned exactly as §3.1 describes, using only observable fields.
type Category string

// Pipeline categories, in filtering order.
const (
	CatShort       Category = "short"        // too brief for CCA dynamics to matter
	CatAppLimited  Category = "app-limited"  // AppLimited > 0
	CatRWndLimited Category = "rwnd-limited" // RWndLimited > 0
	CatCellular    Category = "cellular"     // inferred cellular access
	CatStable      Category = "stable"       // remainder, no throughput level change
	CatLevelShift  Category = "level-shift"  // remainder, throughput level changed
)

// AnalysisConfig is AnalyzeStream's configuration argument. It has no
// fields: the pipeline's settings are the constants below. The type
// stays because the ledger passes AnalysisConfig{}.
type AnalysisConfig struct{}

// The Figure 2 pipeline's settings.
const (
	// minDuration excludes shorter flows as "short".
	minDuration = 2 * time.Second
	// minShiftFrac is the relative difference between adjacent segment
	// means required to count a detected breakpoint as a real level
	// shift.
	minShiftFrac = 0.2
	// minSegment is the change-point detector's minimum segment length
	// in snapshots (1s at the NDT cadence).
	minSegment = 10
)

// FlowResult is the pipeline's verdict for one record.
type FlowResult struct {
	ID       string
	Category Category
	// Breakpoints are snapshot indices of accepted level shifts.
	Breakpoints []int
	// ShiftMagnitudes are the relative magnitudes of accepted shifts.
	ShiftMagnitudes []float64
	// Truth is the generator label, carried through for validation.
	Truth Label
}

// Analysis is the aggregate outcome of running the pipeline on a
// dataset. Per-flow Results are absent in the streaming aggregate mode
// (see StreamOptions).
type Analysis struct {
	Total   int
	ByCat   map[Category]int
	Results []FlowResult
	// ShiftCDF collects relative shift magnitudes across flows with
	// level shifts.
	ShiftCDF *stats.CDF
	val      Validation
}

// scratch carries one worker's reusable buffers: the throughput
// trace, the change-point detector's arrays, and the accepted
// breakpoint/magnitude lists. After warmup, analyzing a flow performs
// no heap allocations.
type scratch struct {
	trace []float64
	cp    changepoint.Scratch
	bps   []int
	mags  []float64
}

// analyzeInto classifies one record. The result's Breakpoints and
// ShiftMagnitudes alias sc and are valid until the next call.
func analyzeInto(r *Record, sc *scratch) FlowResult {
	res := FlowResult{ID: r.ID, Truth: r.TruthLabel}
	final := r.FinalSnapshot()
	switch {
	case r.Duration < minDuration:
		res.Category = CatShort
	case final.AppLimited > 0:
		res.Category = CatAppLimited
	case final.RWndLimited > 0:
		res.Category = CatRWndLimited
	case r.Access == AccessCellular:
		res.Category = CatCellular
	default:
		res.Category = CatStable
		sc.trace = r.ThroughputTraceInto(sc.trace)
		trace := sc.trace
		pen := changepoint.BICPenalty(len(trace), sc.cp.EstimateNoise(trace)) * minSegment
		bps := sc.cp.PELT(trace, pen, minSegment)
		means := sc.cp.SegmentMeans(trace, bps)
		// Accept a breakpoint only when adjacent segment means differ
		// by minShiftFrac relative to the larger one.
		sc.bps = sc.bps[:0]
		sc.mags = sc.mags[:0]
		for k, b := range bps {
			hi := means[k]
			lo := means[k+1]
			if lo > hi {
				hi, lo = lo, hi
			}
			if hi <= 0 {
				continue
			}
			mag := (hi - lo) / hi
			if mag >= minShiftFrac {
				sc.bps = append(sc.bps, b)
				sc.mags = append(sc.mags, mag)
			}
		}
		if len(sc.bps) > 0 {
			res.Category = CatLevelShift
			res.Breakpoints = sc.bps
			res.ShiftMagnitudes = sc.mags
		}
	}
	return res
}

// Fraction returns the fraction of flows in the given category.
func (a *Analysis) Fraction(c Category) float64 {
	if a.Total == 0 {
		return 0
	}
	return float64(a.ByCat[c]) / float64(a.Total)
}

// Validation compares the pipeline's level-shift verdicts against the
// generator's ground truth (synthetic datasets only).
type Validation struct {
	TruePos, FalsePos, TrueNeg, FalseNeg int
}

// Precision returns TP/(TP+FP), or 0 when undefined.
func (v Validation) Precision() float64 {
	d := v.TruePos + v.FalsePos
	if d == 0 {
		return 0
	}
	return float64(v.TruePos) / float64(d)
}

// Recall returns TP/(TP+FN), or 0 when undefined.
func (v Validation) Recall() float64 {
	d := v.TruePos + v.FalseNeg
	if d == 0 {
		return 0
	}
	return float64(v.TruePos) / float64(d)
}

// Validate scores level-shift detection against ground truth over the
// flows that reached the change-point stage (i.e. categorized stable
// or level-shift). A "positive" is a contending flow. The counts are
// accumulated while flows stream through the pipeline, so they are
// available even when per-flow Results were not retained.
func (a *Analysis) Validate() Validation { return a.val }

// scoreTruth folds one flow's verdict into the validation counts,
// mirroring Validate's historical definition.
func (v *Validation) scoreTruth(res *FlowResult) {
	if res.Category != CatStable && res.Category != CatLevelShift {
		return
	}
	truthPositive := res.Truth == LabelContending || res.Truth == LabelPoliced
	detected := res.Category == CatLevelShift
	switch {
	case truthPositive && detected:
		v.TruePos++
	case truthPositive && !detected:
		v.FalseNeg++
	case !truthPositive && detected:
		v.FalsePos++
	default:
		v.TrueNeg++
	}
}

func (v *Validation) merge(o Validation) {
	v.TruePos += o.TruePos
	v.FalsePos += o.FalsePos
	v.TrueNeg += o.TrueNeg
	v.FalseNeg += o.FalseNeg
}

// errWriter tracks the first write error so a report renders with one
// error check instead of one per Fprintf.
type errWriter struct {
	w   io.Writer
	err error
}

func (ew *errWriter) Write(p []byte) (int, error) {
	if ew.err != nil {
		return 0, ew.err
	}
	n, err := ew.w.Write(p)
	if err != nil {
		ew.err = err
	}
	return n, err
}

// WriteReport renders the Figure 2 style summary to w: the category
// breakdown and the level-shift statistics among candidate flows. It
// returns the first error the underlying writer reported.
func (a *Analysis) WriteReport(w io.Writer) error {
	ew := &errWriter{w: w}
	fmt.Fprintf(ew, "M-Lab NDT passive analysis (%d flows)\n", a.Total)
	fmt.Fprintf(ew, "%-14s %8s %8s\n", "category", "flows", "frac")
	cats := []Category{CatShort, CatAppLimited, CatRWndLimited, CatCellular, CatStable, CatLevelShift}
	for _, c := range cats {
		fmt.Fprintf(ew, "%-14s %8d %7.1f%%\n", c, a.ByCat[c], 100*a.Fraction(c))
	}
	candidates := a.ByCat[CatStable] + a.ByCat[CatLevelShift]
	total := a.Total
	if total < 1 {
		total = 1
	}
	fmt.Fprintf(ew, "\ncandidate (non-excluded) flows: %d (%.1f%%)\n", candidates, 100*float64(candidates)/float64(total))
	if candidates > 0 {
		fmt.Fprintf(ew, "with throughput level shift:    %d (%.1f%% of candidates)\n",
			a.ByCat[CatLevelShift], 100*float64(a.ByCat[CatLevelShift])/float64(candidates))
	}
	if a.ShiftCDF != nil && a.ShiftCDF.Len() > 0 {
		fmt.Fprintf(ew, "shift magnitude CDF: %v\n", a.ShiftCDF)
	}
	return ew.err
}

// CategoryOrder returns pipeline categories in display order.
func CategoryOrder() []Category {
	return []Category{CatShort, CatAppLimited, CatRWndLimited, CatCellular, CatStable, CatLevelShift}
}
