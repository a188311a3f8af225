package census

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"repro/internal/scenario"
	"repro/internal/stats"
)

// StratumKey names the (queue, fault) stratum a cell aggregates into.
func StratumKey(queue, fault string) string {
	if fault == "" {
		fault = "clean"
	}
	return queue + "|" + fault
}

// Sketch geometries for the aggregate's observables. Jain's index
// lives in [0, 1]; utilization can transiently exceed 1 by a queue
// drain, so its range leaves headroom. Fixed here so every partial is
// mergeable with every other partial of the same model.
const (
	jainBins = 200
	utilBins = 250
	utilHi   = 1.25
)

func newJainSketch() *stats.Sketch { return stats.NewSketch(0, 1, jainBins) }
func newUtilSketch() *stats.Sketch { return stats.NewSketch(0, utilHi, utilBins) }

// Cell is one stratum's (or the overall) accumulated state: class
// counters plus quantile sketches of the observables. Its state is
// pure counts, so cells merge commutatively and a sharded census
// aggregates byte-identically to a sequential one.
type Cell struct {
	Total   int                    `json:"total"`
	Classes map[Classification]int `json:"classes,omitempty"`
	Errors  int                    `json:"errors,omitempty"`
	Jain    *stats.Sketch          `json:"jain"`
	Util    *stats.Sketch          `json:"util"`
}

func newCell() *Cell {
	return &Cell{Classes: map[Classification]int{}, Jain: newJainSketch(), Util: newUtilSketch()}
}

func (c *Cell) add(o Obs) {
	c.Total++
	c.Classes[o.Class]++
	if o.Err != "" {
		c.Errors++
		return
	}
	c.Jain.Add(o.Jain)
	c.Util.Add(o.Util)
}

func (c *Cell) merge(o *Cell) error {
	c.Total += o.Total
	for k, v := range o.Classes {
		c.Classes[k] += v
	}
	c.Errors += o.Errors
	if err := c.Jain.Merge(o.Jain); err != nil {
		return err
	}
	return c.Util.Merge(o.Util)
}

// Empty sketches of the fixed geometries. Merging one into a decoded
// sketch checks that sketch's geometry and changes nothing.
var jainShape, utilShape = newJainSketch(), newUtilSketch()

// check vets a decoded cell before it can reach a merge: it must be
// present, carry both sketches in their fixed geometries, count
// nothing negative and no class above its total (a report's Wilson
// interval is NaN past it). A cell whose classes were omitted gets an empty
// map, so a later merge into it does not write to a nil map.
func (c *Cell) check() error {
	switch {
	case c == nil:
		return fmt.Errorf("cell is null")
	case c.Total < 0 || c.Errors < 0:
		return fmt.Errorf("negative count (total %d, errors %d)", c.Total, c.Errors)
	case c.Jain == nil || c.Util == nil:
		return fmt.Errorf("cell lacks its jain or util sketch")
	}
	for k, n := range c.Classes {
		if n < 0 || n > c.Total {
			return fmt.Errorf("class %s counts %d of %d runs", k, n, c.Total)
		}
	}
	if err := c.Jain.Merge(jainShape); err != nil {
		return fmt.Errorf("jain: %w", err)
	}
	if err := c.Util.Merge(utilShape); err != nil {
		return fmt.Errorf("util: %w", err)
	}
	if c.Classes == nil {
		c.Classes = map[Classification]int{}
	}
	return nil
}

// Aggregate folds classified census cells into per-stratum and overall
// counters. It is the mergeable unit a shard ships home.
type Aggregate struct {
	Strata  map[string]*Cell `json:"strata"`
	Overall *Cell            `json:"overall"`
}

// NewAggregate returns an empty aggregate.
func NewAggregate() *Aggregate {
	return &Aggregate{Strata: map[string]*Cell{}, Overall: newCell()}
}

// Add folds one classified run in.
func (a *Aggregate) Add(o Obs) {
	key := StratumKey(o.Queue, o.Fault)
	cell := a.Strata[key]
	if cell == nil {
		cell = newCell()
		a.Strata[key] = cell
	}
	cell.add(o)
	a.Overall.add(o)
}

// Merge folds b into a. Strata observed by only one side carry over
// unchanged (cells are copied by reference; don't reuse b after).
func (a *Aggregate) Merge(b *Aggregate) error {
	for key, cell := range b.Strata {
		if mine := a.Strata[key]; mine != nil {
			if err := mine.merge(cell); err != nil {
				return fmt.Errorf("census: merge stratum %s: %w", key, err)
			}
		} else {
			a.Strata[key] = cell
		}
	}
	if err := a.Overall.merge(b.Overall); err != nil {
		return fmt.Errorf("census: merge overall: %w", err)
	}
	return nil
}

// Partial is one shard's output: the model it sampled (hash-pinned),
// the index slice it covered, and the aggregate over that slice.
type Partial struct {
	ModelHash string     `json:"model_hash"`
	Model     Model      `json:"model"`
	Lo        int        `json:"lo"`
	Hi        int        `json:"hi"`
	Agg       *Aggregate `json:"aggregate"`
}

// Encode returns the partial's canonical JSON (newline-terminated so
// partials are clean shell artifacts).
func (p Partial) Encode() ([]byte, error) {
	b, err := scenario.CanonicalJSON(p)
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// ParsePartial decodes one shard artifact, verifying the embedded
// model re-hashes to the recorded hash so a hand-edited partial can't
// sneak into a merge.
func ParsePartial(b []byte) (Partial, error) {
	var p Partial
	if err := json.Unmarshal(b, &p); err != nil {
		return Partial{}, fmt.Errorf("census: parse partial: %w", err)
	}
	if p.Agg == nil || p.Agg.Overall == nil {
		return Partial{}, fmt.Errorf("census: partial has no aggregate")
	}
	for key, cell := range p.Agg.Strata {
		if err := cell.check(); err != nil {
			return Partial{}, fmt.Errorf("census: partial stratum %s: %w", key, err)
		}
	}
	if err := p.Agg.Overall.check(); err != nil {
		return Partial{}, fmt.Errorf("census: partial overall: %w", err)
	}
	if got := p.Model.Hash(); got != p.ModelHash {
		return Partial{}, fmt.Errorf("census: partial model hash %.12s does not match embedded model (%.12s)", p.ModelHash, got)
	}
	if p.Lo < 0 || p.Hi > p.Model.N || p.Lo > p.Hi {
		return Partial{}, fmt.Errorf("census: partial covers [%d, %d) outside population [0, %d)", p.Lo, p.Hi, p.Model.N)
	}
	return p, nil
}

// Merge folds shard partials into the final report. It refuses
// mismatched models, overlaps, and gaps: the partials must tile
// exactly [0, N) of one model, in any order.
func Merge(parts []Partial) (*Report, error) {
	if len(parts) == 0 {
		return nil, fmt.Errorf("census: nothing to merge")
	}
	sorted := make([]Partial, len(parts))
	copy(sorted, parts)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Lo < sorted[j].Lo })

	hash := sorted[0].ModelHash
	agg := NewAggregate()
	next := 0
	for _, p := range sorted {
		if p.ModelHash != hash {
			return nil, fmt.Errorf("census: partials from different models (%.12s vs %.12s)", hash, p.ModelHash)
		}
		if p.Lo != next {
			return nil, fmt.Errorf("census: shard coverage broken at index %d (next partial starts at %d)", next, p.Lo)
		}
		next = p.Hi
		if err := agg.Merge(p.Agg); err != nil {
			return nil, err
		}
	}
	m := sorted[0].Model
	if next != m.N {
		return nil, fmt.Errorf("census: shards cover [0, %d) of a %d-spec population", next, m.N)
	}
	return buildReport(m, hash, agg), nil
}

// StratumReport is one stratum's line in the final report: counts,
// the contention-dominated fraction with its Wilson interval, and
// quantiles of the observables.
type StratumReport struct {
	Stratum string                 `json:"stratum"`
	Total   int                    `json:"total"`
	Classes map[Classification]int `json:"classes,omitempty"`
	Errors  int                    `json:"errors,omitempty"`
	// ContentionFrac is the point estimate of the
	// contention-dominated fraction; the CI bounds are its Wilson
	// score interval at z = stats.WilsonZ.
	ContentionFrac float64 `json:"contention_frac"`
	ContentionLo   float64 `json:"contention_ci_lo"`
	ContentionHi   float64 `json:"contention_ci_hi"`
	// Jain and Util quantiles ([p10 p50 p90]); absent strata report
	// zeros.
	JainQ [3]float64 `json:"jain_q"`
	UtilQ [3]float64 `json:"util_q"`
}

func cellReport(key string, c *Cell) StratumReport {
	sr := StratumReport{Stratum: key, Total: c.Total, Classes: c.Classes, Errors: c.Errors}
	k := c.Classes[ClassContention]
	if c.Total > 0 {
		sr.ContentionFrac = float64(k) / float64(c.Total)
	}
	sr.ContentionLo, sr.ContentionHi = stats.Wilson(k, c.Total)
	for i, q := range [3]float64{0.1, 0.5, 0.9} {
		if v, err := c.Jain.Quantile(q); err == nil {
			sr.JainQ[i] = v
		}
		if v, err := c.Util.Quantile(q); err == nil {
			sr.UtilQ[i] = v
		}
	}
	return sr
}

// Report is the census's final artifact. Its canonical JSON is
// byte-identical however the census was sharded: every number in it is
// a pure function of the merged counters.
type Report struct {
	ModelHash string  `json:"model_hash"`
	ModelName string  `json:"model_name,omitempty"`
	N         int     `json:"n"`
	Z         float64 `json:"z"`
	// Strata is sorted by stratum key; Overall folds every run.
	Strata  []StratumReport `json:"strata"`
	Overall StratumReport   `json:"overall"`
}

func buildReport(m Model, hash string, agg *Aggregate) *Report {
	r := &Report{ModelHash: hash, ModelName: m.Name, N: m.N, Z: stats.WilsonZ}
	keys := make([]string, 0, len(agg.Strata))
	for k := range agg.Strata {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		r.Strata = append(r.Strata, cellReport(k, agg.Strata[k]))
	}
	r.Overall = cellReport("overall", agg.Overall)
	return r
}

// ReportOf builds the report for a single-process census: the whole
// population aggregated in one partial.
func ReportOf(m Model, agg *Aggregate) *Report {
	return buildReport(m, m.Hash(), agg)
}

// Encode returns the report's canonical JSON, newline-terminated.
func (r *Report) Encode() ([]byte, error) {
	b, err := scenario.CanonicalJSON(r)
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// WriteTable renders the report for humans.
func (r *Report) WriteTable(w io.Writer) {
	fmt.Fprintf(w, "census: %d paths from model %.12s (%s)\n", r.N, r.ModelHash, r.ModelName)
	fmt.Fprintf(w, "%-28s %8s %10s %8s %19s %8s %8s\n",
		"stratum", "total", "contention", "frac", "95% CI", "jain p50", "util p50")
	row := func(sr StratumReport) {
		fmt.Fprintf(w, "%-28s %8d %10d %7.1f%% [%6.1f%%, %6.1f%%] %8.3f %8.3f\n",
			sr.Stratum, sr.Total, sr.Classes[ClassContention], 100*sr.ContentionFrac,
			100*sr.ContentionLo, 100*sr.ContentionHi, sr.JainQ[1], sr.UtilQ[1])
	}
	for _, sr := range r.Strata {
		row(sr)
	}
	row(r.Overall)
	if r.Overall.Errors > 0 {
		fmt.Fprintf(w, "%d runs failed (classed inconclusive)\n", r.Overall.Errors)
	}
}
