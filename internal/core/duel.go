package core

import (
	"fmt"
	"io"
	"time"

	"repro/internal/cca"
	"repro/internal/obs"
	"repro/internal/scenario"
	"repro/internal/stats"
)

// duelWarmupFrac is the initial fraction of a duel left out of
// throughput averaging.
const duelWarmupFrac = 1.0 / 3

func init() {
	scenario.Register(scenario.Experiment{
		Name:        "duel",
		Description: "one contention cell: two CCAs on a bottleneck under a queue discipline and fault profile",
		// Reno against BBR on 48 Mbit/s, a 40 ms round trip and a
		// bufferbloated 2-BDP droptail buffer, for 30 s.
		Defaults: scenario.Spec{CCAs: []string{"reno", "bbr"},
			RateBps: 48e6, RTTMs: 40, Queue: string(QueueDropTail), BufferBDP: 2, DurationS: 30},
		Run:   run(runDuel),
		Table: table[*DuelResult](),
	})
}

// DuelResult is one cell's outcome.
type DuelResult struct {
	scores
	sp scenario.Spec
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

// runDuel executes the atomic contention cell every grid sweep is
// built from: the spec's two CCAs contend on one bottleneck under its
// queue discipline, optionally through a fault profile. Figure 1 is a
// grid of these cells on a clean link; the CCA x queue x fault sweeps
// extend the same cell across impaired paths.
func runDuel(sp scenario.Spec, sc *obs.Scope) (*DuelResult, error) {
	if len(sp.CCAs) != 2 {
		return nil, fmt.Errorf("core: duel wants exactly 2 ccas, got %v", sp.CCAs)
	}
	cc1, err := cca.New(sp.CCAs[0])
	if err != nil {
		return nil, fmt.Errorf("core: duel: %w", err)
	}
	cc2, err := cca.New(sp.CCAs[1])
	if err != nil {
		return nil, fmt.Errorf("core: duel: %w", err)
	}
	dur := sp.Duration()
	from := time.Duration(duelWarmupFrac * float64(dur))
	w := [][2]time.Duration{{from, dur}}
	c, err := newCell(cellSpec{
		hops: []hop{{rateBps: sp.RateBps, delay: oneWay(sp), queue: QueueKind(sp.Queue), bdp: sp.BufferBDP,
			faultProfile: sp.FaultProfile, faultSeed: sp.FaultSeed}},
		flows: []flow{{id: 1, user: 1, cc: cc1, watch: w}, {id: 2, user: 2, cc: cc2, watch: w}},
		obs:   sc,
	})
	if err != nil {
		return nil, fmt.Errorf("core: duel: %w", err)
	}
	defer c.release()
	c.eng.Run(dur)

	t1 := c.src[0].flow.Throughput(from, dur)
	t2 := c.src[1].flow.Throughput(from, dur)
	res := &DuelResult{sp: sp, scores: scores{
		Tput1Bps: t1,
		Tput2Bps: t2,
		Jain:     stats.JainIndex([]float64{t1, t2}),
		Harm1:    stats.Harm(sp.RateBps/2, t1),
	}}
	if total := t1 + t2; total > 0 {
		res.Share2 = t2 / total
	}
	return res, nil
}

// WriteTable renders the cell.
func (r *DuelResult) WriteTable(w io.Writer) {
	sp := r.sp
	profile := sp.FaultProfile
	if profile == "" {
		profile = "clean"
	}
	pair := sp.CCAs[0] + "/" + sp.CCAs[1]
	fmt.Fprintf(w, "duel: %s vs %s on a %s link (%v RTT), queue=%s, faults=%s\n",
		sp.CCAs[0], sp.CCAs[1], FmtBps(sp.RateBps), 2*oneWay(sp), sp.Queue, profile)
	fmt.Fprintf(w, "%-14s %12s %12s %8s %7s %7s\n",
		"pair", "flow1", "flow2", "share2", "jain", "harm1")
	fmt.Fprintf(w, "%-14s %12s %12s %7.1f%% %7.3f %7.3f\n",
		pair, FmtBps(r.Tput1Bps), FmtBps(r.Tput2Bps),
		100*r.Share2, r.Jain, r.Harm1)
}
