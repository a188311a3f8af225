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
	"repro/internal/transport"
)

func init() {
	scenario.Register(scenario.Experiment{
		Name:        "cellular",
		Description: "§5.1 trade-off: each CCA alone on a fading, isolated cellular link",
		Defaults:    scenario.Spec{Seed: 1},
		Run:         run(runCellular),
		Table:       table[*CellularResult](),
	})
}

// cellularDefaults are the §5.1 link and comparison set: a 20 Mbit/s
// mean rate on a 50 ms round trip for 60 s, under cubic, bbr, vegas,
// copa and the Nimbus delay mode.
var cellularDefaults = scenario.Spec{RateBps: 20e6, RTTMs: 50, DurationS: 60,
	CCAs: []string{"cubic", "bbr", "vegas", "copa", "nimbus"}}

// CellularRow is one CCA's outcome on the fading link.
type CellularRow struct {
	CCA string
	// Utilization is achieved throughput / mean link rate.
	Utilization float64
	// P50DelayMs and P95DelayMs are RTT percentiles in milliseconds.
	P50DelayMs, P95DelayMs float64
	// SelfInflictedMs is p95 RTT minus the propagation RTT: the
	// standing queue the CCA builds for itself.
	SelfInflictedMs float64
	// LossEvents counts loss epochs.
	LossEvents int64
}

// CellularResult is the experiment outcome.
type CellularResult struct {
	Rows []CellularRow
	sp   scenario.Spec
}

// runCellular executes the §5.1 experiment: if flows are isolated (as
// cellular links already are per-user), the CCA's job is not fairness
// but the throughput/self-inflicted-delay trade-off on a variable link.
// Each of the spec's CCAs runs alone (per-user isolation means no
// competition) on an identical fading-rate trace around the spec's
// rate, drawn from its seed, and reports utilization and delay
// percentiles.
func runCellular(sp scenario.Spec, sc *obs.Scope) (*CellularResult, error) {
	sp = withDefaults(sp, cellularDefaults)
	res := &CellularResult{sp: sp}
	for _, name := range sp.CCAs {
		row, err := runCellularOne(sp, sc, name)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

func runCellularOne(sp scenario.Spec, sc *obs.Scope, name string) (CellularRow, error) {
	var cc transport.CCA
	if name == "nimbus" {
		cc = nimbus.NewCCA(nimbus.Config{})
	} else {
		var err error
		cc, err = cca.New(name)
		if err != nil {
			return CellularRow{}, err
		}
	}
	dur, owd := sp.Duration(), oneWay(sp)
	warm := dur / 4
	c, err := newCell(cellSpec{
		// Deep buffer, as cellular base stations have: 8 mean BDPs.
		hops: []hop{{name: "cell", rateBps: sp.RateBps, delay: owd,
			buf: int(sp.RateBps / 8 * (2 * owd).Seconds() * 8), fading: true}},
		flows: []flow{{id: 1, cc: cc, traceRTT: true, watch: [][2]time.Duration{{warm, dur}}}},
		seed:  sp.Seed + 17,
		obs:   sc,
	})
	if err != nil {
		return CellularRow{}, fmt.Errorf("core: cellular: %w", err)
	}
	defer c.release()
	c.eng.Run(dur)

	f := c.src[0].flow
	rtts := f.Sender.RTTs.Window(warm, dur)
	for i := range rtts {
		rtts[i] *= 1000
	}
	p50, _ := stats.Quantile(rtts, 0.5)
	p95, _ := stats.Quantile(rtts, 0.95)
	base := float64(2*owd) / float64(time.Millisecond)
	// Utilization is measured against the rate the link actually
	// offered during the measurement window, not the nominal mean.
	var offered float64
	n := 0
	for _, pt := range c.fading.Trace {
		if pt.At >= warm {
			offered += pt.Bps
			n++
		}
	}
	if n > 0 {
		offered /= float64(n)
	} else {
		offered = sp.RateBps
	}
	return CellularRow{
		CCA:             name,
		Utilization:     f.Throughput(warm, dur) / offered,
		P50DelayMs:      p50,
		P95DelayMs:      p95,
		SelfInflictedMs: p95 - base,
		LossEvents:      f.Sender.LossEvents(),
	}, nil
}

// WriteTable renders the comparison.
func (r *CellularResult) WriteTable(w io.Writer) {
	fmt.Fprintf(w, "exp-cellular (§5.1): one flow per CCA on a fading %s link (isolated, no competition)\n",
		FmtBps(r.sp.RateBps))
	fmt.Fprintf(w, "%-8s %6s %9s %9s %14s %8s\n", "cca", "util", "p50-rtt", "p95-rtt", "self-delay-p95", "losses")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-8s %5.1f%% %7.1fms %7.1fms %12.1fms %8d\n",
			row.CCA, 100*row.Utilization, row.P50DelayMs, row.P95DelayMs, row.SelfInflictedMs, row.LossEvents)
	}
}
