package core

import (
	"fmt"
	"io"
	"time"

	"repro/internal/cca"
	"repro/internal/obs"
	"repro/internal/stats"
)

// duelWarmupFrac is the initial fraction of a duel left out of
// throughput averaging.
const duelWarmupFrac = 1.0 / 3

// DuelConfig parameterizes the atomic contention cell every grid sweep
// is built from: two named CCAs contend on one bottleneck under a
// chosen queue discipline, optionally through a fault profile. Figure
// 1 is a grid of these cells on a clean link; the CCA x queue x fault
// sweeps extend the same cell across impaired paths.
type DuelConfig struct {
	// CCA1 and CCA2 name the contenders (see cca.New).
	CCA1, CCA2 string
	// RateBps is the bottleneck rate (default 48 Mbit/s).
	RateBps float64
	// OneWayDelay is the propagation delay (default 20ms -> 40ms RTT).
	OneWayDelay time.Duration
	// Queue selects the discipline (default droptail).
	Queue QueueKind
	// BufferBDP sizes the buffer (default 2, a bufferbloated access
	// link).
	BufferBDP float64
	// Duration is the scenario length (default 30s).
	Duration time.Duration
	// FaultProfile, when non-empty, names a registered fault profile
	// to impose on the bottleneck; FaultSeed drives its injectors.
	FaultProfile string
	FaultSeed    int64
	// Obs, when non-nil, receives the run's trace events and metric
	// registrations.
	Obs *obs.Scope `json:"-"`
}

func (c DuelConfig) norm() DuelConfig {
	if c.RateBps <= 0 {
		c.RateBps = 48e6
	}
	if c.Queue == "" {
		c.Queue = QueueDropTail
	}
	if c.OneWayDelay <= 0 {
		c.OneWayDelay = 20 * time.Millisecond
	}
	if c.BufferBDP <= 0 {
		c.BufferBDP = 2
	}
	if c.Duration <= 0 {
		c.Duration = 30 * time.Second
	}
	return c
}

// DuelResult is one cell's outcome.
type DuelResult struct {
	Config DuelConfig
	scores
}

// scores are a two-flow cell's allocation, which a duel and a Figure 1
// row both report. Their fields are promoted, to encoding/json too.
type scores struct {
	// Tput1Bps and Tput2Bps are the flows' post-warmup throughputs.
	Tput1Bps, Tput2Bps float64
	// Share2 is flow 2's fraction of the combined throughput.
	Share2 float64
	// Jain is Jain's fairness index over the two allocations.
	Jain float64
	// Harm1 is the harm flow 1 suffers relative to a fair half-link
	// share.
	Harm1 float64
}

// RunDuel executes one contention cell.
func RunDuel(cfg DuelConfig) (*DuelResult, error) {
	cfg = cfg.norm()
	cc1, err := cca.New(cfg.CCA1)
	if err != nil {
		return nil, fmt.Errorf("core: duel: %w", err)
	}
	cc2, err := cca.New(cfg.CCA2)
	if err != nil {
		return nil, fmt.Errorf("core: duel: %w", err)
	}
	from := time.Duration(duelWarmupFrac * float64(cfg.Duration))
	w := [][2]time.Duration{{from, cfg.Duration}}
	c, err := newCell(cellSpec{
		hops: []hop{{rateBps: cfg.RateBps, delay: cfg.OneWayDelay, queue: cfg.Queue, bdp: cfg.BufferBDP,
			faultProfile: cfg.FaultProfile, faultSeed: cfg.FaultSeed}},
		flows: []flow{{id: 1, user: 1, cc: cc1, watch: w}, {id: 2, user: 2, cc: cc2, watch: w}},
		obs:   cfg.Obs,
	})
	if err != nil {
		return nil, fmt.Errorf("core: duel: %w", err)
	}
	defer c.release()
	c.eng.Run(cfg.Duration)

	t1 := c.src[0].flow.Throughput(from, cfg.Duration)
	t2 := c.src[1].flow.Throughput(from, cfg.Duration)
	res := &DuelResult{Config: cfg, scores: scores{
		Tput1Bps: t1,
		Tput2Bps: t2,
		Jain:     stats.JainIndex([]float64{t1, t2}),
		Harm1:    stats.Harm(cfg.RateBps/2, t1),
	}}
	if total := t1 + t2; total > 0 {
		res.Share2 = t2 / total
	}
	return res, nil
}

// WriteTable renders the cell.
func (r *DuelResult) WriteTable(w io.Writer) {
	c := r.Config
	profile := c.FaultProfile
	if profile == "" {
		profile = "clean"
	}
	fmt.Fprintf(w, "duel: %s vs %s on a %s link (%v RTT), queue=%s, faults=%s\n",
		c.CCA1, c.CCA2, FmtBps(c.RateBps), 2*c.OneWayDelay, string(c.Queue), profile)
	fmt.Fprintf(w, "%-14s %12s %12s %8s %7s %7s\n",
		"pair", "flow1", "flow2", "share2", "jain", "harm1")
	fmt.Fprintf(w, "%-14s %12s %12s %7.1f%% %7.3f %7.3f\n",
		c.CCA1+"/"+c.CCA2, FmtBps(r.Tput1Bps), FmtBps(r.Tput2Bps),
		100*r.Share2, r.Jain, r.Harm1)
}
