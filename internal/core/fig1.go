package core

import (
	"fmt"
	"io"

	"repro/internal/obs"
	"repro/internal/scenario"
)

func init() {
	scenario.Register(scenario.Experiment{
		Name:        "fig1",
		Description: "Figure 1 isolation grid: CCA pairs x queue disciplines on one access link",
		// Figure 1's access link, Figure 3's rate on a 40 ms round
		// trip with a bufferbloated 2-BDP buffer, where BBR-vs-Reno
		// asymmetry is pronounced; each cell runs 60 s.
		Defaults: scenario.Spec{RateBps: 48e6, RTTMs: 40, BufferBDP: 2, DurationS: 60},
		Run:      run(runFig1),
		Table:    table[*Fig1Result](),
	})
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
	Rows []Fig1Row
	sp   scenario.Spec
}

// runFig1 executes the isolation experiment: CCA pairings contend on
// one access link under different in-network bandwidth management
// disciplines. It quantifies Figure 1's claim that operator bandwidth
// management (fair queueing, per-user throttling+isolation) removes CCA
// identity from bandwidth allocation, while FIFO queues let aggressive
// CCAs dominate.
func runFig1(sp scenario.Spec, sc *obs.Scope) (*Fig1Result, error) {
	res := &Fig1Result{sp: sp}
	for _, pair := range fig1Pairs {
		for _, q := range fig1Queues {
			row, err := runFig1Cell(sp, sc, pair, q)
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
func runFig1Cell(sp scenario.Spec, sc *obs.Scope, pair [2]string, q QueueKind) (Fig1Row, error) {
	cell := scenario.Spec{CCAs: pair[:], RateBps: sp.RateBps, RTTMs: sp.RTTMs, Queue: string(q),
		BufferBDP: sp.BufferBDP, DurationS: sp.DurationS}
	// Under QueueUserIso each flow is a distinct subscriber capped at
	// half the link (a hop's default shaper rate): throttling to the
	// purchased rate plus isolation.
	res, err := runDuel(cell, sc)
	if err != nil {
		return Fig1Row{}, err
	}
	return Fig1Row{CCA1: pair[0], CCA2: pair[1], Queue: q, scores: res.scores}, nil
}

// WriteTable renders the grid as the fig1 table.
func (r *Fig1Result) WriteTable(w io.Writer) {
	fmt.Fprintf(w, "fig1: CCA pairs on a %s access link (%v RTT), 2 backlogged flows\n",
		FmtBps(r.sp.RateBps), 2*oneWay(r.sp))
	fmt.Fprintf(w, "%-14s %-10s %12s %12s %8s %7s %7s\n",
		"pair", "queue", "flow1", "flow2", "share2", "jain", "harm1")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-14s %-10s %12s %12s %7.1f%% %7.3f %7.3f\n",
			row.CCA1+"/"+row.CCA2, string(row.Queue),
			FmtBps(row.Tput1Bps), FmtBps(row.Tput2Bps),
			100*row.Share2, row.Jain, row.Harm1)
	}
}
