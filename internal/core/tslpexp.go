package core

import (
	"fmt"
	"io"

	"repro/internal/obs"
	"repro/internal/scenario"
	"repro/internal/traffic"
	"repro/internal/tslp"
)

func init() {
	scenario.Register(scenario.Experiment{
		Name:        "tslp",
		Description: "congestion vs contention: TSLP and the elasticity probe on the same scenarios",
		Defaults:    scenario.Spec{Seed: 1},
		Run:         run(runTSLP),
		Table:       table[*TSLPResult](),
	})
}

// tslpDefaults are the comparison's link and length: 48 Mbit/s with a
// 50 ms round trip, 40 s per scenario.
var tslpDefaults = scenario.Spec{RateBps: 48e6, RTTMs: 50, DurationS: 40}

// TSLPRow is one scenario's verdicts.
type TSLPRow struct {
	Scenario string
	// TruthContention is the ground truth: backlogged CCA-driven flows
	// share the queue.
	TruthContention bool
	// TSLPCongested is TSLP's verdict (latency inflation).
	TSLPCongested bool
	// TSLPP90Ms is the p90 latency differential.
	TSLPP90Ms float64
	// ProbeElastic is the elasticity probe's verdict.
	ProbeElastic bool
	// ProbeOverloaded flags the non-yielding regime: the windowed
	// cross-traffic estimate persistently exceeds the link capacity,
	// which no CCA-controlled traffic does (it would back off). The
	// spectral eta is unreliable there, and the semantically correct
	// reading is "congestion managed upstream, not flow contention".
	ProbeOverloaded bool
	// ProbeEta is the mean elasticity.
	ProbeEta float64
}

// TSLPResult is the experiment outcome.
type TSLPResult struct {
	Rows []TSLPRow
	sp   scenario.Spec
}

// runTSLP executes the congestion-vs-contention comparison: the
// paper's §1 distinction made measurable. Three scenarios load the same
// link — backlogged CCA flows (contention), an aggregate of short
// application-limited flows (congestion without contention), and an
// idle link — and two instruments look at it: TSLP (latency inflation)
// and the Nimbus elasticity probe.
func runTSLP(sp scenario.Spec, sc *obs.Scope) (*TSLPResult, error) {
	sp = withDefaults(sp, tslpDefaults)
	res := &TSLPResult{sp: sp}
	for _, name := range []string{"contention", "aggregate", "idle"} {
		row, err := runTSLPScenario(sp, sc, name)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// tslpTraffic is the scenario's cross traffic and whether its ground
// truth is CCA contention.
func tslpTraffic(name string) ([]flow, bool, error) {
	switch name {
	case "contention":
		return []flow{{id: 2, user: crossUser, kind: "reno"}, {id: 3, user: crossUser, kind: "cubic"}}, true, nil
	case "aggregate":
		// A dense aggregate of IW-bound web flows whose offered load
		// exceeds the link: congestion with no flow long enough for
		// CCA dynamics to govern its share — the overloaded
		// peering-link scenario from §1. Each flow is two packets,
		// inside IW, sent fire-and-forget (open loop): exogenous load.
		return []flow{{id: 1000, user: 2, kind: "short", shortRate: 3600,
			sizes: traffic.FixedSize(3000), openLoop: true}}, false, nil
	case "idle":
		return nil, false, nil
	default:
		return nil, false, fmt.Errorf("core: unknown tslp scenario %q", name)
	}
}

// runTSLPScenario measures the scenario with each instrument in its
// own simulation: TSLP is a third-party passive observer, while the
// elasticity probe is an active participant — running them together
// would have TSLP measuring the probe's own standing queue.
func runTSLPScenario(sp scenario.Spec, sc *obs.Scope, name string) (TSLPRow, error) {
	row := TSLPRow{Scenario: name}
	dur := sp.Duration()
	warm := dur / 4
	cross, truth, err := tslpTraffic(name)
	if err != nil {
		return row, err
	}
	row.TruthContention = truth
	spec := cellSpec{hops: []hop{{rateBps: sp.RateBps, delay: oneWay(sp)}}, flows: cross, seed: sp.Seed, obs: sc}

	// Instrument 1: TSLP alone with the scenario traffic.
	c1, err := newCell(spec)
	if err != nil {
		return row, fmt.Errorf("core: tslp: %w", err)
	}
	defer c1.release()
	prober := tslp.NewProber(c1.eng, c1.links[0])
	c1.eng.Run(dur)
	v := prober.Verdict(warm, dur)
	row.TSLPCongested = v.Congested
	row.TSLPP90Ms = v.P90Ms

	// Instrument 2: the active elasticity probe with the same traffic,
	// built after it: a different program from probeAgainst under the
	// engine's (at, seq) order, and the one this experiment's results
	// were recorded with.
	probeCC := paperProbe(sp.RateBps)
	spec.flows = append(cross, flow{id: 1, user: 1, cc: probeCC})
	c2, err := newCell(spec)
	if err != nil {
		return row, fmt.Errorf("core: tslp: %w", err)
	}
	defer c2.release()
	c2.eng.Run(dur)
	pv := probeCC.Est.Verdict(warm, dur)
	row.ProbeEta, row.ProbeElastic = pv.Mean, pv.Elastic
	if probeCC.Est.OverloadFactor() > 1.05 {
		row.ProbeOverloaded = true
		row.ProbeElastic = false
	}
	return row, nil
}

// WriteTable renders the comparison. The key row is "aggregate":
// TSLP flags congestion, the elasticity probe correctly reports no
// CCA contention.
func (r *TSLPResult) WriteTable(w io.Writer) {
	fmt.Fprintf(w, "exp-tslp (§4): congestion detection vs contention detection on a %s link\n",
		FmtBps(r.sp.RateBps))
	fmt.Fprintf(w, "%-11s %10s %14s %10s %13s %9s\n",
		"scenario", "truth", "tslp-verdict", "tslp-p90", "probe-verdict", "mean-eta")
	for _, row := range r.Rows {
		tslpV := "quiet"
		if row.TSLPCongested {
			tslpV = "congested"
		}
		probeV := "inelastic"
		if row.ProbeElastic {
			probeV = "ELASTIC"
		}
		if row.ProbeOverloaded {
			probeV = "overloaded"
		}
		truth := "none"
		if row.TruthContention {
			truth = "contention"
		}
		fmt.Fprintf(w, "%-11s %10s %14s %8.1fms %13s %9.3f\n",
			row.Scenario, truth, tslpV, row.TSLPP90Ms, probeV, row.ProbeEta)
	}
}
