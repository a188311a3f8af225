package core

import (
	"fmt"
	"io"
	"time"

	"repro/internal/cca"
	"repro/internal/nimbus"
	"repro/internal/obs"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/stats"
)

func init() {
	for _, e := range []scenario.Experiment{{
		Name:        "pulse",
		Description: "abl-pulse: elasticity separation vs pulse frequency and amplitude",
		Run:         run(runPulseSweep),
		Table:       table[*PulseSweepResult](),
	}, {
		Name:        "buffer",
		Description: "abl-buffer: elasticity separation vs bottleneck buffer depth",
		Run:         run(runBufferSweep),
		Table:       table[*BufferSweepResult](),
	}, {
		Name:        "subpkt",
		Description: "abl-subpkt: N Reno flows on sub-packet-BDP links",
		Defaults:    scenario.Spec{Flows: 8},
		Run:         run(runSubPacket),
		Table:       table[*SubPacketResult](),
	}, {
		Name:        "jitter",
		Description: "abl-jitter: delay contention under token-bucket shaping (§5.2)",
		Run:         run(runJitter),
		Table:       table[*JitterResult](),
	}} {
		scenario.Register(e)
	}
}

// Each cell of the pulse, buffer and jitter ablations runs 30 s by
// default; abl-subpkt runs 8 flows for 20 s.
var (
	ablationDefaults  = scenario.Spec{DurationS: 30}
	subPacketDefaults = scenario.Spec{Flows: 8, DurationS: 20}
)

// pulseFreqs (Hz) and pulseAmps (fractions of mu) are abl-pulse's grid.
var (
	pulseFreqs = []float64{1, 2, 5, 10}
	pulseAmps  = []float64{0.1, 0.25, 0.5}
)

// PulseSweepRow holds one (frequency, amplitude) cell of the pulse
// ablation: elasticity separation between a Reno (elastic) and CBR
// (inelastic) cross-traffic scenario.
type PulseSweepRow struct {
	FreqHz     float64
	Amp        float64
	EtaReno    float64
	EtaCBR     float64
	Separation float64 // EtaReno - EtaCBR: the detector's margin
}

// PulseSweepResult is the full ablation grid.
type PulseSweepResult struct {
	Rows []PulseSweepRow
}

// runPulseSweep runs the abl-pulse ablation: how the pulse frequency
// and amplitude choice affects the probe's ability to separate elastic
// from inelastic cross traffic on the Figure 3 link. It demonstrates
// why the pulse period must exceed the loaded RTT.
func runPulseSweep(sp scenario.Spec, sc *obs.Scope) (*PulseSweepResult, error) {
	dur := withDefaults(sp, ablationDefaults).Duration()
	res := &PulseSweepResult{}
	for _, f := range pulseFreqs {
		for _, a := range pulseAmps {
			row, err := pulseRow(f, a, dur, sc)
			if err != nil {
				return nil, err
			}
			res.Rows = append(res.Rows, row)
		}
	}
	return res, nil
}

// pulseRow is one (frequency, amplitude) cell of abl-pulse.
func pulseRow(f, a float64, dur time.Duration, sc *obs.Scope) (PulseSweepRow, error) {
	probe := nimbus.PaperConfig(fig3RateBps)
	probe.PulseFreq, probe.PulseAmp = f, a
	etaR, etaC, err := separation(probe, 1, dur, sc)
	return PulseSweepRow{FreqHz: f, Amp: a, EtaReno: etaR, EtaCBR: etaC, Separation: etaR - etaC}, err
}

// separation measures the detector's margin in one configuration of
// the Figure 3 link: the probe's mean elasticity against a backlogged
// Reno flow and against a 0.4-rate CBR flow, each in its own run,
// scored after a 10 s settle.
func separation(probe nimbus.Config, bufferBDP float64, dur time.Duration, sc *obs.Scope) (etaReno, etaCBR float64, err error) {
	var etas [2]float64
	for i, kind := range []string{"reno", "cbr"} {
		v, err := probeAgainst(cellSpec{hops: []hop{{rateBps: fig3RateBps, delay: fig3OneWayDelay, bdp: bufferBDP}}, obs: sc},
			nimbus.NewCCA(probe), flow{id: 2, user: crossUser, kind: kind, cbrBps: 0.4 * fig3RateBps}, 10*time.Second, dur)
		if err != nil {
			return 0, 0, err
		}
		etas[i] = v.Mean
	}
	return etas[0], etas[1], nil
}

// WriteTable renders the ablation table.
func (r *PulseSweepResult) WriteTable(w io.Writer) {
	fmt.Fprintln(w, "abl-pulse: elasticity separation vs pulse frequency/amplitude (48 Mbit/s, 100ms RTT)")
	fmt.Fprintf(w, "%6s %6s %9s %8s %11s\n", "freq", "amp", "eta-reno", "eta-cbr", "separation")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%5.1fHz %6.2f %9.3f %8.3f %11.3f\n", row.FreqHz, row.Amp, row.EtaReno, row.EtaCBR, row.Separation)
	}
}

// bufferBDPs are abl-buffer's bottleneck buffer depths in
// bandwidth-delay products.
var bufferBDPs = []float64{0.5, 1, 2, 4}

// BufferSweepRow holds one buffer-depth cell of the abl-buffer
// ablation: detector separation vs bottleneck buffer size.
type BufferSweepRow struct {
	BufferBDP  float64
	EtaReno    float64
	EtaCBR     float64
	Separation float64
}

// BufferSweepResult is the full ablation sweep.
type BufferSweepResult struct {
	Rows []BufferSweepRow
}

// runBufferSweep runs the abl-buffer ablation: the probe's pulses
// work the bottleneck queue, so the buffer depth (relative to the
// pulse-induced swing) bounds how much elastic response can register.
// Very shallow buffers clip the oscillation; bufferbloat dilutes it.
func runBufferSweep(sp scenario.Spec, sc *obs.Scope) (*BufferSweepResult, error) {
	dur := withDefaults(sp, ablationDefaults).Duration()
	res := &BufferSweepResult{}
	for _, bdp := range bufferBDPs {
		etaR, etaC, err := separation(nimbus.PaperConfig(fig3RateBps), bdp, dur, sc)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, BufferSweepRow{
			BufferBDP: bdp, EtaReno: etaR, EtaCBR: etaC, Separation: etaR - etaC,
		})
	}
	return res, nil
}

// WriteTable renders the ablation table.
func (r *BufferSweepResult) WriteTable(w io.Writer) {
	fmt.Fprintln(w, "abl-buffer: elasticity separation vs bottleneck buffer depth (48 Mbit/s, 100ms RTT, 2 Hz)")
	fmt.Fprintf(w, "%8s %9s %8s %11s\n", "buffer", "eta-reno", "eta-cbr", "separation")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%5.1fBDP %9.3f %8.3f %11.3f\n", row.BufferBDP, row.EtaReno, row.EtaCBR, row.Separation)
	}
}

// subPacketRates are abl-subpkt's link rates in bits/s.
var subPacketRates = []float64{256e3, 512e3, 1e6, 2e6}

// SubPacketRow summarizes the abl-subpkt ablation at one link rate:
// N Reno flows on a sub-packet-BDP link (Chen et al., SIGMETRICS '11 —
// the paper's §2.3 developing-world discussion).
type SubPacketRow struct {
	RateBps float64
	Flows   int
	// Jain is the fairness index over per-flow throughput in the
	// measurement window.
	Jain float64
	// StarvedFlows counts flows receiving under 10% of their fair
	// share.
	StarvedFlows int
	// Timeouts counts RTO-driven loss events across flows.
	Timeouts int64
}

// SubPacketResult is the full ablation sweep.
type SubPacketResult struct {
	Rows []SubPacketRow
}

// runSubPacket runs the sub-packet-regime ablation: the spec's number
// of Reno flows on low-rate links where the per-flow BDP is below one
// packet produce timeout-driven starvation over short timescales.
func runSubPacket(sp scenario.Spec, sc *obs.Scope) (*SubPacketResult, error) {
	sp = withDefaults(sp, subPacketDefaults)
	res := &SubPacketResult{}
	for _, rate := range subPacketRates {
		row, err := subPacketRow(sp, sc, rate)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// subPacketRow runs the spec's flows on one thin link of the given
// rate.
func subPacketRow(sp scenario.Spec, sc *obs.Scope, rate float64) (SubPacketRow, error) {
	dur := sp.Duration()
	w := [][2]time.Duration{{dur / 4, dur}}
	flows := make([]flow, sp.Flows)
	for i := range flows {
		flows[i] = flow{id: i + 1, user: 1, cc: cca.NewRenoCC(), watch: w}
	}
	// 200ms one-way: a long, thin path.
	c, err := newCell(cellSpec{hops: []hop{{name: "thin", rateBps: rate, delay: 100 * time.Millisecond, buf: 8 * sim.MSS}},
		flows: flows, obs: sc})
	if err != nil {
		return SubPacketRow{}, fmt.Errorf("core: subpkt: %w", err)
	}
	defer c.release()
	c.eng.Run(dur)
	var tputs []float64
	var timeouts int64
	starved := 0
	fair := rate / float64(sp.Flows)
	for _, s := range c.src {
		tp := s.flow.Throughput(dur/4, dur)
		tputs = append(tputs, tp)
		timeouts += s.flow.Sender.LossEvents()
		if tp < 0.1*fair {
			starved++
		}
	}
	return SubPacketRow{
		RateBps: rate, Flows: sp.Flows,
		Jain:         stats.JainIndex(tputs),
		StarvedFlows: starved,
		Timeouts:     timeouts,
	}, nil
}

// WriteTable renders the ablation table.
func (r *SubPacketResult) WriteTable(w io.Writer) {
	fmt.Fprintln(w, "abl-subpkt: N Reno flows on sub-packet-BDP links (400ms RTT)")
	fmt.Fprintf(w, "%12s %6s %7s %9s %9s\n", "link", "flows", "jain", "starved", "timeouts")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%12s %6d %7.3f %9d %9d\n", FmtBps(row.RateBps), row.Flows, row.Jain, row.StarvedFlows, row.Timeouts)
	}
}

// JitterRow summarizes the abl-jitter ablation under one shaping
// configuration: §5.2's observation that flows still contend on
// latency/jitter even when bandwidth is isolated.
type JitterRow struct {
	Shaping string
	// P50, P99 of the smooth flow's per-ack RTT in milliseconds.
	P50Ms, P99Ms float64
	// JitterMs is p99 - p50: the burst-induced delay variation.
	JitterMs float64
}

// JitterResult is the full ablation sweep.
type JitterResult struct {
	Rows []JitterRow
}

// runJitter runs the jitter ablation: a smooth low-rate flow shares a
// token-bucket-shaped queue (and, for comparison, a plain FIFO and a
// fair queue) with a bursty on-off flow; even when average bandwidth
// is protected, token-bucket bursts inflate the smooth flow's delay.
func runJitter(sp scenario.Spec, sc *obs.Scope) (*JitterResult, error) {
	dur := withDefaults(sp, ablationDefaults).Duration()
	res := &JitterResult{}
	for _, mode := range []string{"fifo", "shaper", "fq"} {
		h := hop{rateBps: 20e6, delay: 10 * time.Millisecond, bdp: 4}
		switch mode {
		case "shaper":
			// Shape the aggregate to half the rate, 10 Mbit/s, with a
			// deep burst allowance: the token bucket releases
			// accumulated bursts at line rate.
			h.queue = QueueShaper
		case "fq":
			h.queue = QueueFQ
		}
		c, err := newCell(cellSpec{hops: []hop{h}, flows: []flow{
			// Smooth flow: low-rate CBR stream (a live-video-like source).
			{id: 1, user: 1, kind: "cbr", cbrBps: 1e6, traceRTT: true},
			// Bursty flow: on-off Cubic bursts.
			{id: 2, user: 2, kind: "onoff"},
		}, obs: sc})
		if err != nil {
			return nil, fmt.Errorf("core: jitter: %w", err)
		}
		c.eng.Run(dur)

		rtts := c.src[0].flow.Sender.RTTs.Window(dur/4, dur)
		for i := range rtts {
			rtts[i] *= 1000 // ms
		}
		p50, _ := stats.Quantile(rtts, 0.5)
		p99, _ := stats.Quantile(rtts, 0.99)
		res.Rows = append(res.Rows, JitterRow{Shaping: mode, P50Ms: p50, P99Ms: p99, JitterMs: p99 - p50})
		c.release()
	}
	return res, nil
}

// WriteTable renders the ablation table.
func (r *JitterResult) WriteTable(w io.Writer) {
	fmt.Fprintln(w, "abl-jitter: smooth 1 Mbit/s flow sharing with a bursty flow (§5.2)")
	fmt.Fprintf(w, "%-8s %9s %9s %10s\n", "queue", "p50-rtt", "p99-rtt", "jitter")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-8s %7.1fms %7.1fms %8.1fms\n", row.Shaping, row.P50Ms, row.P99Ms, row.JitterMs)
	}
}
