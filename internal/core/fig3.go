package core

import (
	"fmt"
	"io"
	"strings"
	"time"

	"repro/internal/nimbus"
	"repro/internal/obs"
	"repro/internal/stats"
	"repro/internal/traffic"
)

// Fig3Config parameterizes the elasticity proof-of-concept (Figure 3):
// a Nimbus probe with mode switching disabled runs continuously on an
// emulated 48 Mbit/s, 100 ms link while five kinds of cross traffic
// take 45-second turns.
type Fig3Config struct {
	// RateBps is the emulated link rate (default 48 Mbit/s).
	RateBps float64
	// OneWayDelay is the propagation delay (default 50ms → 100ms RTT,
	// the paper's Mahimahi setup).
	OneWayDelay time.Duration
	// PhaseDuration is each cross-traffic phase's length (default 45s).
	PhaseDuration time.Duration
	// Phases lists the cross-traffic phases in order (default the
	// paper's five: reno, bbr, video, short flows, cbr).
	Phases []string
	// Nimbus overrides the probe configuration; Mu defaults to
	// RateBps.
	Nimbus nimbus.Config
	// Seed drives workload randomness.
	Seed int64
	// BufferBDP sizes the droptail buffer (default 1).
	BufferBDP float64
	// FaultProfile, when non-empty, names a registered fault profile to
	// impose on the bottleneck (see faults.Names): the probe is measured through
	// an impaired link rather than a clean one. FaultSeed drives the
	// injectors.
	FaultProfile string
	FaultSeed    int64
	// Obs, when non-nil, receives the run's trace events and metric
	// registrations (probe flow, cross flows, link, AQM, faults).
	Obs *obs.Scope `json:"-"`
}

// The Figure 3 link: 48 Mbit/s with a 100 ms RTT, the paper's
// Mahimahi setup. The separation ablations and the socket-probe
// differential run on it too.
const (
	fig3RateBps     = 48e6
	fig3OneWayDelay = 50 * time.Millisecond
)

func (c Fig3Config) norm() Fig3Config {
	if c.RateBps <= 0 {
		c.RateBps = fig3RateBps
	}
	if c.OneWayDelay <= 0 {
		c.OneWayDelay = fig3OneWayDelay
	}
	if c.PhaseDuration <= 0 {
		c.PhaseDuration = 45 * time.Second
	}
	if len(c.Phases) == 0 {
		c.Phases = []string{"reno", "bbr", "video", "short", "cbr"}
	}
	paper := nimbus.PaperConfig(c.RateBps)
	if c.Nimbus.Mu <= 0 {
		c.Nimbus.Mu = paper.Mu
	}
	if c.Nimbus.PulseFreq <= 0 {
		c.Nimbus.PulseFreq = paper.PulseFreq
	}
	// The delay-mode controller adapts the standing queue to 0.4x
	// the observed minRTT (40ms on this link), which
	// absorbs the pulse troughs (trough deficit = A*mu*T/pi ~= 40ms at
	// 2 Hz with A=0.25) and keeps the cross-traffic estimate truthful
	// when the link would otherwise drain.
	if c.BufferBDP <= 0 {
		c.BufferBDP = 1
	}
	return c
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
	Config Fig3Config
	Phases []Fig3Phase
	// Eta is the complete elasticity time series.
	Eta []stats.Sample
}

// fig3Settle leaves the first 5 s of every phase out of its score:
// elasticity windows there straddle the transition.
func fig3Settle(time.Duration) time.Duration { return 5 * time.Second }

// RunFig3 executes the Figure 3 experiment in a single continuous
// simulation: the probe flow runs throughout; cross traffic starts and
// stops at phase boundaries.
func RunFig3(cfg Fig3Config) (*Fig3Result, error) {
	cfg = cfg.norm()
	// The phases are a uniform schedule. Its bounds are whole multiples
	// of PhaseDuration; the float seconds are for validation only.
	sched := make([]traffic.Phase, len(cfg.Phases))
	spans := make([]phaseSpan, len(cfg.Phases))
	for i, kind := range cfg.Phases {
		sched[i] = traffic.Phase{Kind: kind, DurS: cfg.PhaseDuration.Seconds()}
		start := time.Duration(i) * cfg.PhaseDuration
		spans[i] = phaseSpan{kind: kind, start: start, end: start + cfg.PhaseDuration}
	}
	if err := traffic.ValidateSchedule(sched); err != nil {
		return nil, fmt.Errorf("core: unknown fig3 phase: %w", err)
	}
	probeCC := nimbus.NewCCA(cfg.Nimbus)
	c, err := newCell(cellSpec{
		hops: []hop{{rateBps: cfg.RateBps, delay: cfg.OneWayDelay, bdp: cfg.BufferBDP,
			faultProfile: cfg.FaultProfile, faultSeed: cfg.FaultSeed}},
		flows: phaseFlows(flow{id: 1, user: 1, cc: probeCC}, spans, fig3Settle, 0.4*cfg.RateBps),
		seed:  cfg.Seed + 1,
		obs:   cfg.Obs,
	})
	if err != nil {
		return nil, fmt.Errorf("core: fig3: %w", err)
	}
	defer c.release()
	measured := c.runPhases(spans, fig3Settle, probeCC.Est)

	res := &Fig3Result{Config: cfg, Eta: probeCC.Est.Elasticity.Samples()}
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
		FmtBps(r.Config.RateBps), 2*r.Config.OneWayDelay)
	fmt.Fprintf(w, "%-8s %8s %8s %8s %9s %12s %12s\n",
		"phase", "windows", "mean-eta", "max-eta", "elastic?", "cross-tput", "probe-tput")
	for _, p := range r.Phases {
		fmt.Fprintf(w, "%-8s %8d %8.3f %8.3f %9v %12s %12s\n",
			p.Name, p.Windows, p.MeanEta, p.MaxEta, p.Elastic,
			FmtBps(p.CrossTputBps), FmtBps(p.ProbeTputBps))
	}
}
