package core

import (
	"fmt"
	"io"
	"time"

	"repro/internal/obs"
)

// Fig1Config parameterizes the isolation experiment: CCA pairings
// contend on one access link under different in-network bandwidth
// management disciplines.
type Fig1Config struct {
	// RateBps is the access link rate (default 48 Mbit/s, matching
	// Figure 3's link).
	RateBps float64
	// OneWayDelay is the propagation delay (default 20ms → 40ms RTT).
	OneWayDelay time.Duration
	// Duration is the scenario length (default 60s).
	Duration time.Duration
	// BufferBDP sizes the buffer (default 2 — a bufferbloated access
	// link, where BBR-vs-Reno asymmetry is pronounced).
	BufferBDP float64
	// Obs, when non-nil, receives every cell's trace events and metric
	// registrations.
	Obs *obs.Scope `json:"-"`
}

func (c Fig1Config) norm() Fig1Config {
	if c.RateBps <= 0 {
		c.RateBps = 48e6
	}
	if c.OneWayDelay <= 0 {
		c.OneWayDelay = 20 * time.Millisecond
	}
	if c.Duration <= 0 {
		c.Duration = 60 * time.Second
	}
	if c.BufferBDP <= 0 {
		c.BufferBDP = 2
	}
	return c
}

// fig1Pairs and fig1Queues are Figure 1's grid: the paper-motivated
// CCA pairings against FIFO, fair queueing and per-user isolation.
var (
	fig1Pairs = [][2]string{
		{"reno", "reno"},
		{"reno", "cubic"},
		{"reno", "bbr"},
		{"cubic", "bbr"},
	}
	fig1Queues = []QueueKind{QueueDropTail, QueueFQ, QueueUserIso}
)

// Fig1Row is one (pair, queue) cell of the experiment.
type Fig1Row struct {
	CCA1, CCA2 string
	Queue      QueueKind
	scores
}

// Fig1Result is the full grid.
type Fig1Result struct {
	Config Fig1Config
	Rows   []Fig1Row
}

// RunFig1 executes the isolation experiment: it quantifies Figure 1's
// claim that operator bandwidth management (fair queueing, per-user
// throttling+isolation) removes CCA identity from bandwidth
// allocation, while FIFO queues let aggressive CCAs dominate.
func RunFig1(cfg Fig1Config) (*Fig1Result, error) {
	cfg = cfg.norm()
	res := &Fig1Result{Config: cfg}
	for _, pair := range fig1Pairs {
		for _, q := range fig1Queues {
			row, err := runFig1Cell(cfg, pair, q)
			if err != nil {
				return nil, err
			}
			res.Rows = append(res.Rows, row)
		}
	}
	return res, nil
}

// runFig1Cell is a thin wrapper over the shared duel cell: Figure 1 is
// a CCA-pair x queue grid of duels on a clean link.
func runFig1Cell(cfg Fig1Config, pair [2]string, q QueueKind) (Fig1Row, error) {
	dc := DuelConfig{
		CCA1:        pair[0],
		CCA2:        pair[1],
		RateBps:     cfg.RateBps,
		OneWayDelay: cfg.OneWayDelay,
		Queue:       q,
		BufferBDP:   cfg.BufferBDP,
		Duration:    cfg.Duration,
		Obs:         cfg.Obs,
	}
	// Under QueueUserIso each flow is a distinct subscriber capped at
	// half the link (a hop's default shaper rate): throttling to the
	// purchased rate plus isolation.
	res, err := RunDuel(dc)
	if err != nil {
		return Fig1Row{}, err
	}
	return Fig1Row{CCA1: pair[0], CCA2: pair[1], Queue: q, scores: res.scores}, nil
}

// WriteTable renders the grid as the fig1 table.
func (r *Fig1Result) WriteTable(w io.Writer) {
	fmt.Fprintf(w, "fig1: CCA pairs on a %s access link (%v RTT), 2 backlogged flows\n",
		FmtBps(r.Config.RateBps), 2*r.Config.OneWayDelay)
	fmt.Fprintf(w, "%-14s %-10s %12s %12s %8s %7s %7s\n",
		"pair", "queue", "flow1", "flow2", "share2", "jain", "harm1")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-14s %-10s %12s %12s %7.1f%% %7.3f %7.3f\n",
			row.CCA1+"/"+row.CCA2, string(row.Queue),
			FmtBps(row.Tput1Bps), FmtBps(row.Tput2Bps),
			100*row.Share2, row.Jain, row.Harm1)
	}
}
