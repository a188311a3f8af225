package core

import (
	"fmt"
	"io"
	"time"

	"repro/internal/cca"
	"repro/internal/nimbus"
	"repro/internal/obs"
	"repro/internal/scenario"
	"repro/internal/stats"
	"repro/internal/traffic"
	"repro/internal/transport"
)

// huntCellWarmupFrac is the initial fraction of the run left out of
// whole-run throughput averaging.
const huntCellWarmupFrac = 0.15

func init() {
	scenario.Register(scenario.Experiment{
		Name:        "huntcell",
		Description: "adversarial-search cell: victim or probe flow vs a cross-traffic schedule on an inline-faulted link",
		Defaults: scenario.Spec{
			CCAs:  []string{"reno"},
			Cross: []traffic.Phase{{Kind: "bbr", DurS: 10}, {Kind: "idle", DurS: 5}},
		},
		Run:   run(runHuntCell),
		Table: table[*HuntCellResult](),
	})
}

// huntCellDefaults are the cell's link: 16 Mbit/s on a 30 ms round
// trip with a 1-BDP droptail buffer, the victim under reno.
var huntCellDefaults = scenario.Spec{RateBps: 16e6, RTTMs: 30, Queue: string(QueueDropTail), BufferBDP: 1}

// HuntCellPhase is one schedule phase's outcome.
type HuntCellPhase struct {
	Kind       string
	Start, End time.Duration
	// CrossTputBps is the phase workload's achieved throughput.
	CrossTputBps float64
	// MainTputBps is the main flow's throughput within the phase
	// (after the settle margin).
	MainTputBps float64

	// Probe-mode fields: the estimator's verdict for the phase against
	// the schedule's ground truth. Decided is false when no elasticity
	// window landed inside the phase (too short to call).
	TruthElastic bool
	ProbeElastic bool
	Decided      bool
	Windows      int
	MeanEta      float64
}

// HuntCellResult is the cell's outcome: whole-run victim metrics for
// the harm/unfairness objectives and per-phase probe verdicts for the
// misclassification/flip objectives.
type HuntCellResult struct {
	Phases []HuntCellPhase

	// MainTputBps is the main flow's post-warmup throughput;
	// CrossTputBps the schedule's duration-weighted aggregate.
	MainTputBps  float64
	CrossTputBps float64
	// FairShareBps is the half-link reference allocation.
	FairShareBps float64
	// Harm is Ware-style harm to the main flow vs the fair share.
	Harm float64
	// Jain is the fairness index over (main, cross) allocations.
	Jain float64
	// Util is the combined post-warmup link utilization.
	Util float64

	// Probe-mode aggregates: Decided counts phases with a verdict,
	// Misclassified those whose verdict contradicts ground truth.
	Decided       int
	Misclassified int

	sp scenario.Spec
}

// settleMargin is how much of a phase's start is excluded from verdict
// and throughput windows: transitions leak the previous phase's queue.
func settleMargin(phase time.Duration) time.Duration {
	s := 3 * time.Second
	if max := phase / 3; s > max {
		s = max
	}
	return s
}

// runHuntCell executes the adversarial-search cell: one main flow — a
// victim bulk transfer under the spec's first CCA, or with Probe set a
// Nimbus elasticity probe whose per-phase verdicts are scored against
// the schedule's ground truth — on a bottleneck whose impairments come
// from an *inline* fault config (arbitrary, not just the named registry
// profiles, including capacity oscillation; it takes precedence over
// FaultProfile) while the spec's Cross schedule takes phased turns
// against it. The cell's duration is the schedule's total length. Every
// knob the hunt genome encodes is a spec key, so a decoded genome is an
// ordinary, replayable spec.
func runHuntCell(sp scenario.Spec, sc *obs.Scope) (*HuntCellResult, error) {
	sp = withDefaults(sp, huntCellDefaults)
	if len(sp.CCAs) == 0 || sp.CCAs[0] == "" {
		sp.CCAs = []string{"reno"}
	}
	if err := traffic.ValidateSchedule(sp.Cross); err != nil {
		return nil, fmt.Errorf("core: huntcell: %w", err)
	}
	total := traffic.ScheduleDuration(sp.Cross)

	var est *nimbus.Estimator // the main flow's, in probe mode
	var mainCC transport.CCA
	if sp.Probe {
		probeCC := paperProbe(sp.RateBps)
		est, mainCC = probeCC.Est, probeCC
	} else {
		cc, err := cca.New(sp.CCAs[0])
		if err != nil {
			return nil, fmt.Errorf("core: huntcell: victim: %w", err)
		}
		mainCC = cc
	}
	warmup := time.Duration(huntCellWarmupFrac * float64(total))
	spans := make([]phaseSpan, len(sp.Cross))
	var at time.Duration
	for i, ph := range sp.Cross {
		spans[i] = phaseSpan{kind: ph.Kind, start: at, end: at + ph.Duration()}
		at = spans[i].end
	}
	main := flow{id: 1, user: 1, cc: mainCC, watch: [][2]time.Duration{{warmup, total}}}
	c, err := newCell(cellSpec{
		hops: []hop{{rateBps: sp.RateBps, delay: oneWay(sp), queue: QueueKind(sp.Queue), bdp: sp.BufferBDP,
			faultProfile: sp.FaultProfile, fault: sp.Fault, faultSeed: sp.FaultSeed}},
		flows: phaseFlows(main, spans, settleMargin, 0.4*sp.RateBps),
		seed:  sp.Seed + 1,
		obs:   sc,
	})
	if err != nil {
		return nil, fmt.Errorf("core: huntcell: %w", err)
	}
	defer c.release()
	measured := c.runPhases(spans, settleMargin, est)

	res := &HuntCellResult{sp: sp, FairShareBps: sp.RateBps / 2}
	var crossWeighted float64
	for _, m := range measured {
		ph := HuntCellPhase{
			Kind: m.kind, Start: m.start, End: m.end,
			CrossTputBps: m.crossBps,
			MainTputBps:  m.mainBps,
			TruthElastic: traffic.ElasticKind(m.kind),
		}
		if m.eta.Windows > 0 {
			ph.Decided, ph.ProbeElastic = true, m.eta.Elastic
			ph.Windows, ph.MeanEta = m.eta.Windows, m.eta.Mean
			res.Decided++
			if ph.ProbeElastic != ph.TruthElastic {
				res.Misclassified++
			}
		}
		crossWeighted += ph.CrossTputBps * (m.end - m.start).Seconds()
		res.Phases = append(res.Phases, ph)
	}

	res.MainTputBps = c.src[0].flow.Throughput(warmup, total)
	res.CrossTputBps = crossWeighted / total.Seconds()
	res.Harm = stats.Harm(res.FairShareBps, res.MainTputBps)
	res.Jain = stats.JainIndex([]float64{res.MainTputBps, res.CrossTputBps})
	res.Util = (res.MainTputBps + res.CrossTputBps) / sp.RateBps
	return res, nil
}

// WriteTable renders the cell.
func (r *HuntCellResult) WriteTable(w io.Writer) {
	c := r.sp
	mode := "victim=" + c.CCAs[0]
	if c.Probe {
		mode = "probe=nimbus"
	}
	fmt.Fprintf(w, "huntcell: %s on a %s link (%v RTT), queue=%s\n",
		mode, FmtBps(c.RateBps), 2*oneWay(c), c.Queue)
	fmt.Fprintf(w, "%-8s %8s %8s %12s %12s", "phase", "start", "end", "cross-tput", "main-tput")
	if c.Probe {
		fmt.Fprintf(w, " %7s %9s %8s", "truth", "verdict", "mean-eta")
	}
	fmt.Fprintln(w)
	for _, p := range r.Phases {
		fmt.Fprintf(w, "%-8s %8v %8v %12s %12s",
			p.Kind, p.Start, p.End, FmtBps(p.CrossTputBps), FmtBps(p.MainTputBps))
		if c.Probe {
			verdict := fmt.Sprintf("%v", p.ProbeElastic)
			if !p.Decided {
				verdict = "-"
			}
			fmt.Fprintf(w, " %7v %9s %8.3f", p.TruthElastic, verdict, p.MeanEta)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "main %s  cross %s  harm %.3f  jain %.3f  util %.3f",
		FmtBps(r.MainTputBps), FmtBps(r.CrossTputBps), r.Harm, r.Jain, r.Util)
	if c.Probe {
		fmt.Fprintf(w, "  misclassified %d/%d", r.Misclassified, r.Decided)
	}
	fmt.Fprintln(w)
}
