package core

import (
	"fmt"
	"io"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/scenario"
	"repro/internal/stats"
	"repro/internal/traffic"
)

func init() {
	scenario.Register(scenario.Experiment{
		Name:        "fig3",
		Description: "Figure 3 elasticity proof-of-concept: Nimbus probe vs five kinds of cross traffic",
		Defaults:    fig3Defaults,
		Run:         run(runFig3),
		Table:       table[*Fig3Result](),
	})
}

// The Figure 3 link: 48 Mbit/s with a 100 ms RTT, the paper's
// Mahimahi setup. The separation ablations and the socket-probe
// differential run on it too.
const (
	fig3RateBps     = 48e6
	fig3OneWayDelay = 50 * time.Millisecond
)

// fig3Defaults are the paper's Figure 3: its link, and the five kinds
// of cross traffic (reno, bbr, video, short flows, cbr) taking
// 45-second turns. A spec that leaves them out runs them too, on a
// 1-BDP droptail buffer.
var fig3Defaults = scenario.Spec{
	Seed:           1,
	FaultSeed:      1,
	RateBps:        fig3RateBps,
	RTTMs:          float64(2 * fig3OneWayDelay / time.Millisecond),
	PhaseDurationS: 45,
	Phases:         []string{"reno", "bbr", "video", "short", "cbr"},
}

// Fig3Phase is one phase's outcome.
type Fig3Phase struct {
	Name       string
	Start, End time.Duration
	// MeanEta and MaxEta summarize elasticity values emitted during
	// the phase (excluding a settling margin at the phase start).
	MeanEta float64
	MaxEta  float64
	// Elastic is the majority classification across the phase's
	// windows.
	Elastic bool
	// Windows is the number of elasticity windows observed.
	Windows int
	// CrossTputBps is the cross traffic's achieved throughput.
	CrossTputBps float64
	// ProbeTputBps is the probe's achieved throughput.
	ProbeTputBps float64
}

// Fig3Result is the full proof-of-concept outcome.
type Fig3Result struct {
	Phases []Fig3Phase
	// Eta is the complete elasticity time series.
	Eta []stats.Sample
	sp  scenario.Spec
}

// fig3Settle leaves the first 5 s of every phase out of its score:
// elasticity windows there straddle the transition.
func fig3Settle(time.Duration) time.Duration { return 5 * time.Second }

// runFig3 executes the elasticity proof-of-concept (Figure 3) in a
// single continuous simulation: the paper's probe, a Nimbus flow with
// mode switching disabled, runs throughout; cross traffic starts and
// stops at phase boundaries.
func runFig3(sp scenario.Spec, sc *obs.Scope) (*Fig3Result, error) {
	def := fig3Defaults
	// The delay-mode controller adapts the standing queue to 0.4x the
	// observed minRTT (40ms on this link), which absorbs the pulse
	// troughs (trough deficit = A*mu*T/pi ~= 40ms at 2 Hz with A=0.25)
	// and keeps the cross-traffic estimate truthful when the link would
	// otherwise drain.
	def.BufferBDP = 1
	sp = withDefaults(sp, def)
	// The phases are a uniform schedule. Its bounds are whole multiples
	// of the phase length; the float seconds are for validation only.
	phase := phaseDuration(sp)
	sched := make([]traffic.Phase, len(sp.Phases))
	spans := make([]phaseSpan, len(sp.Phases))
	for i, kind := range sp.Phases {
		sched[i] = traffic.Phase{Kind: kind, DurS: phase.Seconds()}
		start := time.Duration(i) * phase
		spans[i] = phaseSpan{kind: kind, start: start, end: start + phase}
	}
	if err := traffic.ValidateSchedule(sched); err != nil {
		return nil, fmt.Errorf("core: unknown fig3 phase: %w", err)
	}
	probeCC := paperProbe(sp.RateBps)
	c, err := newCell(cellSpec{
		hops: []hop{{rateBps: sp.RateBps, delay: oneWay(sp), bdp: sp.BufferBDP,
			faultProfile: sp.FaultProfile, faultSeed: sp.FaultSeed}},
		flows: phaseFlows(flow{id: 1, user: 1, cc: probeCC}, spans, fig3Settle, 0.4*sp.RateBps),
		seed:  sp.Seed + 1,
		obs:   sc,
	})
	if err != nil {
		return nil, fmt.Errorf("core: fig3: %w", err)
	}
	defer c.release()
	measured := c.runPhases(spans, fig3Settle, probeCC.Est)

	res := &Fig3Result{sp: sp, Eta: probeCC.Est.Elasticity.Samples()}
	for _, m := range measured {
		res.Phases = append(res.Phases, Fig3Phase{
			Name: m.kind, Start: m.start, End: m.end,
			MeanEta: m.eta.Mean, MaxEta: m.eta.Max, Elastic: m.eta.Elastic, Windows: m.eta.Windows,
			CrossTputBps: m.crossBps, ProbeTputBps: m.mainBps,
		})
	}
	return res, nil
}

// Summary condenses the result into the run log's trailing summary
// line: per-phase mean/max eta and throughputs, keyed by phase name.
func (r *Fig3Result) Summary() obs.Summary {
	m := map[string]float64{"windows_total": float64(len(r.Eta))}
	for _, p := range r.Phases {
		key := strings.ReplaceAll(p.Name, " ", "_")
		m["mean_eta."+key] = p.MeanEta
		m["max_eta."+key] = p.MaxEta
		m["cross_tput_bps."+key] = p.CrossTputBps
		m["probe_tput_bps."+key] = p.ProbeTputBps
	}
	return obs.Summary{Metrics: m}
}

// WriteTable renders the per-phase summary.
func (r *Fig3Result) WriteTable(w io.Writer) {
	fmt.Fprintf(w, "fig3: Nimbus elasticity probe (mode switching disabled) on a %s, %v-RTT link\n",
		FmtBps(r.sp.RateBps), 2*oneWay(r.sp))
	fmt.Fprintf(w, "%-8s %8s %8s %8s %9s %12s %12s\n",
		"phase", "windows", "mean-eta", "max-eta", "elastic?", "cross-tput", "probe-tput")
	for _, p := range r.Phases {
		fmt.Fprintf(w, "%-8s %8d %8.3f %8.3f %9v %12s %12s\n",
			p.Name, p.Windows, p.MeanEta, p.MaxEta, p.Elastic,
			FmtBps(p.CrossTputBps), FmtBps(p.ProbeTputBps))
	}
}
