package core

import (
	"fmt"
	"io"
	"time"

	"repro/internal/cca"
	"repro/internal/nimbus"
	"repro/internal/obs"
	"repro/internal/stats"
	"repro/internal/transport"
)

// CellularConfig parameterizes the §5.1 experiment: if flows are
// isolated (as cellular links already are per-user), the CCA's job is
// not fairness but the throughput/self-inflicted-delay trade-off on a
// variable link. This experiment runs each CCA alone on a fading
// cellular link and reports utilization and delay percentiles.
type CellularConfig struct {
	// MeanRateBps is the link's mean rate (default 20 Mbit/s).
	MeanRateBps float64
	// OneWayDelay is the propagation delay (default 25ms).
	OneWayDelay time.Duration
	// Duration is the run length (default 60s).
	Duration time.Duration
	// CCAs lists the controllers to compare (default cubic, bbr,
	// vegas, copa, nimbus-delay).
	CCAs []string
	// Seed drives the fading process (same trace for every CCA).
	Seed int64
	// Obs, when non-nil, receives every run's trace events and metric
	// registrations.
	Obs *obs.Scope `json:"-"`
}

func (c CellularConfig) norm() CellularConfig {
	if c.MeanRateBps <= 0 {
		c.MeanRateBps = 20e6
	}
	if c.OneWayDelay <= 0 {
		c.OneWayDelay = 25 * time.Millisecond
	}
	if c.Duration <= 0 {
		c.Duration = 60 * time.Second
	}
	if len(c.CCAs) == 0 {
		c.CCAs = []string{"cubic", "bbr", "vegas", "copa", "nimbus"}
	}
	return c
}

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
	Config CellularConfig
	Rows   []CellularRow
}

// RunCellular executes the experiment: each CCA runs alone (per-user
// isolation means no competition) on an identical fading-rate trace.
func RunCellular(cfg CellularConfig) (*CellularResult, error) {
	cfg = cfg.norm()
	res := &CellularResult{Config: cfg}
	for _, name := range cfg.CCAs {
		row, err := runCellularOne(cfg, name)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

func runCellularOne(cfg CellularConfig, name string) (CellularRow, error) {
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
	warm := cfg.Duration / 4
	c, err := newCell(cellSpec{
		// Deep buffer, as cellular base stations have: 8 mean BDPs.
		hops: []hop{{name: "cell", rateBps: cfg.MeanRateBps, delay: cfg.OneWayDelay,
			buf: int(cfg.MeanRateBps / 8 * (2 * cfg.OneWayDelay).Seconds() * 8), fading: true}},
		flows: []flow{{id: 1, cc: cc, traceRTT: true, watch: [][2]time.Duration{{warm, cfg.Duration}}}},
		seed:  cfg.Seed + 17,
		obs:   cfg.Obs,
	})
	if err != nil {
		return CellularRow{}, fmt.Errorf("core: cellular: %w", err)
	}
	defer c.release()
	c.eng.Run(cfg.Duration)

	f := c.src[0].flow
	rtts := f.Sender.RTTs.Window(warm, cfg.Duration)
	for i := range rtts {
		rtts[i] *= 1000
	}
	p50, _ := stats.Quantile(rtts, 0.5)
	p95, _ := stats.Quantile(rtts, 0.95)
	base := float64(2*cfg.OneWayDelay) / float64(time.Millisecond)
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
		offered = cfg.MeanRateBps
	}
	return CellularRow{
		CCA:             name,
		Utilization:     f.Throughput(warm, cfg.Duration) / offered,
		P50DelayMs:      p50,
		P95DelayMs:      p95,
		SelfInflictedMs: p95 - base,
		LossEvents:      f.Sender.LossEvents(),
	}, nil
}

// WriteTable renders the comparison.
func (r *CellularResult) WriteTable(w io.Writer) {
	fmt.Fprintf(w, "exp-cellular (§5.1): one flow per CCA on a fading %s link (isolated, no competition)\n",
		FmtBps(r.Config.MeanRateBps))
	fmt.Fprintf(w, "%-8s %6s %9s %9s %14s %8s\n", "cca", "util", "p50-rtt", "p95-rtt", "self-delay-p95", "losses")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-8s %5.1f%% %7.1fms %7.1fms %12.1fms %8d\n",
			row.CCA, 100*row.Utilization, row.P50DelayMs, row.P95DelayMs, row.SelfInflictedMs, row.LossEvents)
	}
}
