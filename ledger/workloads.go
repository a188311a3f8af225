package main

import (
	"bytes"
	"context"
	"embed"
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"repro/internal/census"
	"repro/internal/faults"
	"repro/internal/hunt"
	"repro/internal/mlab"
	"repro/internal/scenario"
)

// specFS holds the workloads' inputs as the files a user would hand the
// CLIs: `ccac run -spec ledger/specs/fig3.json`, `ccac census run
// -model ledger/specs/census-model.json`.
//
//go:embed specs/*.json
var specFS embed.FS

// instance is one workload set up for a seed: run executes one op and
// returns its canonical result bytes (c is nil except in the traced
// op); check applies the workload's output invariants to them.
type instance interface {
	run(c *collector) ([]byte, error)
	check(result []byte) error
}

// workload is one named benchmark input. Sizes are fixed here, never
// derived from the host. The model fields tell the traced run which
// probes price this workload's events and packets.
type workload struct {
	name  string
	work  func(quick bool) (float64, string)
	setup func(seed int64, quick bool) (instance, error)

	// enginePath is the engine probe whose unit cost the ledger charges
	// this workload's events at: "dense" where the cell keeps the timer
	// wheel engaged, "sparse" where low-BDP cells stay on the heap.
	enginePath string
	// qdiscMix weights the qdisc probes by the share of this workload's
	// packets that cross each discipline.
	qdiscMix map[string]float64
	// pool is how many workers run this workload's specs at once.
	pool int
	// nimbusProbe says flow 1 of the cell is the Nimbus probe, whose
	// acks carry the estimator's work on top of the transport's.
	nimbusProbe bool
	// extras adds the traced run's workload-specific metrics.
	extras func(t *tracedRun) error
}

var workloads = []*workload{
	{
		name:        "fig3-cell",
		work:        func(quick bool) (float64, string) { return 5 * fig3PhaseS(quick), "virtual_s" },
		setup:       setupFig3,
		enginePath:  "dense",
		qdiscMix:    map[string]float64{"qdisc.droptail_ns": 1},
		pool:        1,
		nimbusProbe: true,
	},
	{
		name:       "manyflow-2k",
		work:       func(quick bool) (float64, string) { return manyflowCells * manyflowDurS, "virtual_s" },
		setup:      setupManyflow,
		enginePath: "dense",
		qdiscMix:   map[string]float64{"qdisc.useriso_ns_2000u": 1},
		pool:       1,
		extras:     manyflowExtras,
	},
	{
		name:       "census-cells",
		work:       func(quick bool) (float64, string) { return float64(censusN(quick)), "specs" },
		setup:      setupCensus,
		enginePath: "sparse",
		// the model's queue mix: sfq rides the same DRR as fq, the
		// policer queues nothing, so it is priced as droptail
		qdiscMix: map[string]float64{"qdisc.droptail_ns": 0.75, "qdisc.fq_codel_ns": 0.12, "qdisc.fq_ns": 0.13},
		pool:     workers,
	},
	{
		name: "hunt-harm",
		work: func(quick bool) (float64, string) {
			n, budget := huntSize(quick)
			return float64(n * budget), "evaluations"
		},
		setup:      setupHunt,
		enginePath: "sparse",
		qdiscMix:   map[string]float64{"qdisc.droptail_ns": 1},
		pool:       workers,
		extras:     huntExtras,
	},
	{
		name:   "mlab-pipeline",
		work:   func(quick bool) (float64, string) { return float64(mlabFlows(quick)), "flows" },
		setup:  setupMLab,
		extras: mlabExtras,
	},
}

func lookupWorkload(name string) (*workload, error) {
	for _, wl := range workloads {
		if wl.name == name {
			return wl, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// loadSpec parses an embedded spec file the way `ccac run -spec` does:
// unknown fields are errors.
func loadSpec(name string) (scenario.Spec, error) {
	var sp scenario.Spec
	b, err := specFS.ReadFile("specs/" + name)
	if err != nil {
		return sp, err
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&sp); err != nil {
		return sp, fmt.Errorf("spec %s: %w", name, err)
	}
	return sp, nil
}

// cells is a workload whose op is its specs, one after another, each
// through scenario.Runner the way `ccac run -spec` executes it. The
// result is one canonical result line per spec.
type cells struct {
	specs   []scenario.Spec
	checkFn func(result []byte) error
}

func (c *cells) run(col *collector) ([]byte, error) {
	var out bytes.Buffer
	for _, sp := range c.specs {
		r := &scenario.Runner{}
		start := time.Now()
		if col != nil {
			r.NewScope = col.newScope
		}
		res := r.Run(context.Background(), sp)
		if col != nil {
			col.add("scenario.spec", start, time.Now(), col.opIdx, sp.Experiment)
			col.specs = append(col.specs, scenario.RunStats{Spec: sp, Hash: res.Hash, Elapsed: res.Elapsed})
		}
		if res.Err != "" {
			return nil, errors.New(res.Err)
		}
		out.Write(res.Result)
		out.WriteByte('\n')
	}
	return out.Bytes(), nil
}

func (c *cells) check(result []byte) error {
	lines := resultLines(result)
	if len(lines) != len(c.specs) {
		return fmt.Errorf("%d results for %d specs", len(lines), len(c.specs))
	}
	for _, line := range lines {
		if err := c.checkFn(line); err != nil {
			return err
		}
	}
	return nil
}

// resultLines splits an op's result into its per-run lines.
func resultLines(result []byte) [][]byte {
	return bytes.Split(bytes.TrimSpace(result), []byte("\n"))
}

// fig3-cell: the paper's Figure 3 — one long cell, few flows, one
// DropTail queue.

func fig3PhaseS(quick bool) float64 {
	if quick {
		return 2
	}
	return 25
}

func setupFig3(seed int64, quick bool) (instance, error) {
	sp, err := loadSpec("fig3.json")
	if err != nil {
		return nil, err
	}
	sp.Seed, sp.FaultSeed, sp.PhaseDurationS = seed, seed, fig3PhaseS(quick)
	return &cells{specs: []scenario.Spec{sp}, checkFn: checkFig3}, nil
}

// checkFig3 wants five phases and the estimator's verdict the right way
// round: mean eta over the elastic phases (reno, bbr) above mean eta
// over the other three. Phases too short to emit a window (-quick)
// have no eta to compare.
func checkFig3(result []byte) error {
	var r struct {
		Phases []struct {
			Name    string
			MeanEta float64
			Windows int
		}
	}
	if err := json.Unmarshal(result, &r); err != nil {
		return err
	}
	if len(r.Phases) != 5 {
		return fmt.Errorf("fig3: %d phases, want 5", len(r.Phases))
	}
	var el, inel, nel, ninel float64
	for _, p := range r.Phases {
		if p.Windows == 0 {
			return nil
		}
		if p.Name == "reno" || p.Name == "bbr" {
			el, nel = el+p.MeanEta, nel+1
		} else {
			inel, ninel = inel+p.MeanEta, ninel+1
		}
	}
	if nel == 0 || ninel == 0 || el/nel <= inel/ninel {
		return fmt.Errorf("fig3: mean eta over elastic phases %.3f not above inelastic %.3f", el/nel, inel/ninel)
	}
	return nil
}

// manyflow-2k: ROADMAP's cliff — thousands of resident timers, the
// isolation qdisc at population scale, churn flow construction, the
// invariant checker armed as `ccac run` arms it.
//
// One op is the cell four times, under four seeds derived from -seed:
// how many of the 2,000 users happen to start a long transfer within
// the virtual second sets the cell's cost, superlinearly, and moves it
// by a tenth from one seed to the next; four draws per op quarter that
// variance (two left the ten-seed quartile spread of wall_s at 11 %) at
// a price the run budget can pay.

const (
	manyflowDurS  = 1
	manyflowCells = 4
)

func manyflowUsers(quick bool) int {
	if quick {
		return 50
	}
	return 2000
}

func setupManyflow(seed int64, quick bool) (instance, error) {
	sp, err := loadSpec("manyflow.json")
	if err != nil {
		return nil, err
	}
	sp.Flows, sp.DurationS = manyflowUsers(quick), manyflowDurS
	c := &cells{checkFn: checkManyflow}
	for i := 0; i < manyflowCells; i++ {
		sp.Seed = faults.DeriveSeed(seed, fmt.Sprintf("ledger/manyflow/%d", i))
		c.specs = append(c.specs, sp)
	}
	return c, nil
}

// manyflowOutcome is the part of core.ManyFlowResult the benchmark
// reads back from the canonical result bytes.
type manyflowOutcome struct {
	VictimJain     float64
	Util           float64
	FlowsStarted   int
	FlowsCompleted int
	Events         float64
}

func checkManyflow(result []byte) error {
	var r manyflowOutcome
	if err := json.Unmarshal(result, &r); err != nil {
		return err
	}
	switch {
	case !(r.Util > 0 && r.Util <= 1):
		return fmt.Errorf("manyflow: utilization %g outside (0, 1]", r.Util)
	case r.VictimJain < 0.9:
		return fmt.Errorf("manyflow: victim Jain index %g below 0.9", r.VictimJain)
	case r.FlowsCompleted <= 0:
		return fmt.Errorf("manyflow: no background flow completed")
	}
	return nil // a checker violation is a run error, caught before this
}

// census-cells: the environment space as users sweep it — many medium
// duel cells through the scenario spine, classified and aggregated.

func censusN(quick bool) int {
	if quick {
		return 6
	}
	return 600
}

type censusShard struct{ model census.Model }

func setupCensus(seed int64, quick bool) (instance, error) {
	b, err := specFS.ReadFile("specs/census-model.json")
	if err != nil {
		return nil, err
	}
	m, err := census.ParseModel(b)
	if err != nil {
		return nil, err
	}
	m.Seed, m.N = seed, censusN(quick)
	if quick {
		m.DurationS = 1
	}
	return &censusShard{model: m}, nil
}

func (s *censusShard) run(col *collector) ([]byte, error) {
	ctx := context.Background()
	m := s.model
	r := &scenario.Runner{Workers: workers}
	if col == nil {
		p, err := census.RunShard(ctx, r, m, 0, m.N)
		if err != nil {
			return nil, err
		}
		return p.Encode()
	}
	// census.RunShard's own loop, with the benchmark's spans around the
	// calls it makes; the result bytes must come out the same.
	r.NewScope, r.ProgressFunc = col.newScope, col.progress
	src, err := m.Source(0, m.N)
	if err != nil {
		return nil, err
	}
	agg := census.NewAggregate()
	sweep := col.begin("scenario.sweep")
	err = r.SweepStream(ctx, src, func(res scenario.RunResult) error {
		start := time.Now()
		agg.Add(census.Classify(res))
		col.add("census.classify", start, time.Now(), sweep, "")
		return nil
	})
	col.end(sweep)
	if err != nil {
		return nil, err
	}
	return census.Partial{ModelHash: m.Hash(), Model: m, Lo: 0, Hi: m.N, Agg: agg}.Encode()
}

func (s *censusShard) check(result []byte) error {
	p, err := census.ParsePartial(result)
	if err != nil {
		return err
	}
	all := p.Agg.Overall
	classes := 0
	for _, n := range all.Classes {
		classes += n
	}
	switch {
	case all.Total != s.model.N:
		return fmt.Errorf("census: aggregate total %d, want %d", all.Total, s.model.N)
	case classes != s.model.N:
		return fmt.Errorf("census: class counts sum to %d, want %d", classes, s.model.N)
	case all.Errors != 0:
		return fmt.Errorf("census: %d cells failed", all.Errors)
	}
	return nil
}

// hunt-harm: thousands of few-millisecond huntcell runs behind a
// per-generation barrier — cell set-up, Spec.Hash, canonical encoding
// and GA bookkeeping at their largest share.
//
// One op is many short independent hunts rather than one long one, and
// the cross schedule is pinned to a single fixed-length phase: a GA
// converges on a region of the genome space whose cells cost up to
// twice another seed's, and a benchmark whose cost doubles with the
// seed cannot tell a regression from a draw. Two generations per hunt
// keep selection, breeding and the barrier in the op while the cost
// stays an average over a thousand mostly independent genomes.

func huntSize(quick bool) (hunts, budget int) {
	if quick {
		return 2, 24
	}
	return 24, 48
}

const huntPhaseS = 3

type huntBatch struct {
	seed          int64
	objective     hunt.Objective
	bounds        hunt.Bounds
	hunts, budget int
}

func setupHunt(seed int64, quick bool) (instance, error) {
	obj, err := hunt.LookupObjective("harm")
	if err != nil {
		return nil, err
	}
	b := obj.DefaultBounds()
	b.MaxPhases, b.MinPhaseS, b.MaxPhaseS = 1, huntPhaseS, huntPhaseS
	hb := &huntBatch{seed: seed, objective: obj, bounds: b}
	hb.hunts, hb.budget = huntSize(quick)
	return hb, nil
}

func (h *huntBatch) run(col *collector) ([]byte, error) {
	var out bytes.Buffer
	for k := 0; k < h.hunts; k++ {
		r := &scenario.Runner{Workers: workers}
		id := -1
		if col != nil {
			r.NewScope, r.ProgressFunc = col.newScope, col.progress
			id = col.begin("hunt.run")
		}
		res, err := hunt.Run(context.Background(), hunt.Config{
			Objective: h.objective,
			Bounds:    h.bounds,
			Budget:    h.budget,
			Seed:      faults.DeriveSeed(h.seed, fmt.Sprintf("ledger/hunt/%d", k)),
			Runner:    r,
		})
		if col != nil {
			col.end(id)
		}
		if err != nil {
			return nil, err
		}
		b, err := scenario.CanonicalJSON(res)
		if err != nil {
			return nil, err
		}
		out.Write(b)
		out.WriteByte('\n')
	}
	return out.Bytes(), nil
}

// huntOutcome is the part of hunt.Result the benchmark reads back.
type huntOutcome struct {
	Evaluations int     `json:"evaluations"`
	BestScore   float64 `json:"best_score"`
	History     []struct {
		Best float64 `json:"best"`
	} `json:"history"`
}

func (h *huntBatch) results(result []byte) ([]huntOutcome, error) {
	var out []huntOutcome
	for _, line := range resultLines(result) {
		var r huntOutcome
		if err := json.Unmarshal(line, &r); err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

func (h *huntBatch) check(result []byte) error {
	rs, err := h.results(result)
	if err != nil {
		return err
	}
	if len(rs) != h.hunts {
		return fmt.Errorf("hunt: %d results, want %d", len(rs), h.hunts)
	}
	for k, r := range rs {
		switch {
		case r.Evaluations != h.budget:
			return fmt.Errorf("hunt %d: %d evaluations, want the budget %d", k, r.Evaluations, h.budget)
		case len(r.History) == 0 || r.BestScore < r.History[0].Best:
			return fmt.Errorf("hunt %d: best score %g below the first generation's best", k, r.BestScore)
		}
	}
	return nil
}

// mlab-pipeline: the passive §3.1 path exactly as mlabanalyze reads it —
// JSONL bytes through RecordStream into AnalyzeStream. No simulator
// code runs. The dataset is built in set-up, not in the op: generation
// with two workers is bimodal on a two-core box, and the traced run
// reports it on its own.

func mlabFlows(quick bool) int {
	if quick {
		return 200
	}
	return 4992 // half the paper's June-2023 query (9,984 flows)
}

type mlabDataset struct {
	data  []byte
	flows int
}

func setupMLab(seed int64, quick bool) (instance, error) {
	var buf bytes.Buffer
	n := mlabFlows(quick)
	if _, err := mlab.GenerateJSONL(&buf, mlab.GeneratorConfig{Flows: n, Seed: seed}, 1, false); err != nil {
		return nil, err
	}
	return &mlabDataset{data: buf.Bytes(), flows: n}, nil
}

// mlabOutcome is the op's canonical result: the counts the checks read
// and the report a user of mlabanalyze sees.
type mlabOutcome struct {
	Total  int
	ByCat  map[mlab.Category]int
	Report string
}

func (d *mlabDataset) run(col *collector) ([]byte, error) {
	id := -1
	if col != nil {
		id = col.begin("mlab.pipeline")
	}
	src, err := mlab.NewRecordStream(bytes.NewReader(d.data), mlab.StreamLimits{})
	if err != nil {
		return nil, err
	}
	defer src.Close()
	an, err := mlab.AnalyzeStream(src, mlab.AnalysisConfig{}, mlab.StreamOptions{Workers: workers})
	if col != nil {
		col.end(id)
	}
	if err != nil {
		return nil, err
	}
	var report bytes.Buffer
	if err := an.WriteReport(&report); err != nil {
		return nil, err
	}
	return scenario.CanonicalJSON(mlabOutcome{Total: an.Total, ByCat: an.ByCat, Report: report.String()})
}

func (d *mlabDataset) check(result []byte) error {
	var r mlabOutcome
	if err := json.Unmarshal(result, &r); err != nil {
		return err
	}
	sum := 0
	for _, n := range r.ByCat {
		sum += n
	}
	switch {
	case r.Total != d.flows:
		return fmt.Errorf("mlab: analyzed %d flows, want %d", r.Total, d.flows)
	case sum != r.Total:
		return fmt.Errorf("mlab: category counts sum to %d, want %d", sum, r.Total)
	}
	return nil
}
