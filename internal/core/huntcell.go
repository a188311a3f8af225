package core

import (
	"fmt"
	"io"
	"time"

	"repro/internal/cca"
	"repro/internal/faults"
	"repro/internal/nimbus"
	"repro/internal/obs"
	"repro/internal/stats"
	"repro/internal/traffic"
	"repro/internal/transport"
)

// huntCellWarmupFrac is the initial fraction of the run left out of
// whole-run throughput averaging.
const huntCellWarmupFrac = 0.15

// HuntCellConfig parameterizes the adversarial-search cell: one main
// flow — a victim bulk transfer, or in probe mode a Nimbus elasticity
// probe — on a bottleneck whose impairments come from an *inline*
// fault config (arbitrary, not just the named registry profiles,
// including capacity oscillation) while a declarative cross-traffic
// schedule takes phased turns against it. Every knob the hunt genome
// encodes lands here, so a decoded genome is an ordinary, replayable
// experiment config.
type HuntCellConfig struct {
	// VictimCCA names the main flow's controller (default "reno").
	// Ignored in probe mode.
	VictimCCA string
	// Probe switches the main flow to a Nimbus elasticity probe whose
	// per-phase verdicts are scored against the schedule's ground
	// truth.
	Probe bool
	// Cross is the cross-traffic schedule; the cell's duration is the
	// schedule's total length.
	Cross []traffic.Phase
	// RateBps is the bottleneck rate (default 16 Mbit/s).
	RateBps float64
	// OneWayDelay is the propagation delay (default 15ms -> 30ms RTT).
	OneWayDelay time.Duration
	// Queue selects the discipline (default droptail).
	Queue QueueKind
	// BufferBDP sizes the buffer (default 1).
	BufferBDP float64
	// Seed drives workload randomness (short-flow arrivals and sizes).
	Seed int64
	// Fault, when non-nil, imposes the inline impairment chain plus
	// any rate oscillation; it takes precedence over FaultProfile.
	Fault *faults.Config
	// FaultProfile names a registered profile when Fault is nil.
	FaultProfile string
	// FaultSeed drives the fault injectors.
	FaultSeed int64
	// Obs, when non-nil, receives the run's trace events and metric
	// registrations.
	Obs *obs.Scope `json:"-"`
}

func (c HuntCellConfig) norm() HuntCellConfig {
	if c.VictimCCA == "" {
		c.VictimCCA = "reno"
	}
	if c.RateBps <= 0 {
		c.RateBps = 16e6
	}
	if c.OneWayDelay <= 0 {
		c.OneWayDelay = 15 * time.Millisecond
	}
	if c.Queue == "" {
		c.Queue = QueueDropTail
	}
	if c.BufferBDP <= 0 {
		c.BufferBDP = 1
	}
	return c
}

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
	Config HuntCellConfig
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

// RunHuntCell executes the cell.
func RunHuntCell(cfg HuntCellConfig) (*HuntCellResult, error) {
	cfg = cfg.norm()
	if err := traffic.ValidateSchedule(cfg.Cross); err != nil {
		return nil, fmt.Errorf("core: huntcell: %w", err)
	}
	total := traffic.ScheduleDuration(cfg.Cross)

	var est *nimbus.Estimator // the main flow's, in probe mode
	var mainCC transport.CCA
	if cfg.Probe {
		probeCC := paperProbe(cfg.RateBps)
		est, mainCC = probeCC.Est, probeCC
	} else {
		cc, err := cca.New(cfg.VictimCCA)
		if err != nil {
			return nil, fmt.Errorf("core: huntcell: victim: %w", err)
		}
		mainCC = cc
	}
	warmup := time.Duration(huntCellWarmupFrac * float64(total))
	spans := make([]phaseSpan, len(cfg.Cross))
	var at time.Duration
	for i, ph := range cfg.Cross {
		spans[i] = phaseSpan{kind: ph.Kind, start: at, end: at + ph.Duration()}
		at = spans[i].end
	}
	main := flow{id: 1, user: 1, cc: mainCC, watch: [][2]time.Duration{{warmup, total}}}
	c, err := newCell(cellSpec{
		hops: []hop{{rateBps: cfg.RateBps, delay: cfg.OneWayDelay, queue: cfg.Queue, bdp: cfg.BufferBDP,
			faultProfile: cfg.FaultProfile, fault: cfg.Fault, faultSeed: cfg.FaultSeed}},
		flows: phaseFlows(main, spans, settleMargin, 0.4*cfg.RateBps),
		seed:  cfg.Seed + 1,
		obs:   cfg.Obs,
	})
	if err != nil {
		return nil, fmt.Errorf("core: huntcell: %w", err)
	}
	defer c.release()
	measured := c.runPhases(spans, settleMargin, est)

	res := &HuntCellResult{Config: cfg, FairShareBps: cfg.RateBps / 2}
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
	res.Util = (res.MainTputBps + res.CrossTputBps) / cfg.RateBps
	return res, nil
}

// WriteTable renders the cell.
func (r *HuntCellResult) WriteTable(w io.Writer) {
	c := r.Config
	mode := "victim=" + c.VictimCCA
	if c.Probe {
		mode = "probe=nimbus"
	}
	fmt.Fprintf(w, "huntcell: %s on a %s link (%v RTT), queue=%s\n",
		mode, FmtBps(c.RateBps), 2*c.OneWayDelay, string(c.Queue))
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
