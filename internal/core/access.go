package core

import (
	"fmt"
	"io"
	"time"

	"repro/internal/cca"
	"repro/internal/contention"
	"repro/internal/obs"
	"repro/internal/scenario"
)

// accessCoreRateBps is the shared core/peering link rate: 1 Gbit/s,
// provisioned for many subscribers.
const accessCoreRateBps = 1e9

// accessUsers is the number of subscribers, two flows each.
const accessUsers = 4

// accessRTT is every path's base round trip, access plus core, which
// each hop's buffer holds one BDP of.
const accessRTT = 30 * time.Millisecond

func init() {
	scenario.Register(scenario.Experiment{
		Name:        "access",
		Description: "§2.2 topology: per-user access links behind an overprovisioned core",
		Run:         run(runAccess),
		Table:       table[*AccessResult](),
	})
}

// accessDefaults are each subscriber's access rate, 50 Mbit/s, and a
// 30 s run.
var accessDefaults = scenario.Spec{RateBps: 50e6, DurationS: 30}

// AccessResult is the experiment outcome.
type AccessResult struct {
	// CoreUtilization is the shared link's busy fraction.
	CoreUtilization float64
	// IntraUserPairs and InterUserPairs count flow pairs satisfying
	// all three contention prerequisites, by relationship.
	IntraUserPairs, InterUserPairs int
	// PairsSharingCore counts pairs sharing the core link at all.
	PairsSharingCore int
	// PerUserTputBps is each user's aggregate throughput.
	PerUserTputBps []float64

	sp scenario.Spec
}

// runAccess runs the §2.2 experiment. Most paths are short, and
// core/peering links are provisioned well below saturation (ISPs keep
// utilization under 60-70%, §2.1), so the *only* place the paper's
// three contention prerequisites can all hold is the access link — and
// only between one user's own flows. It builds the topology — per-user
// access links of the spec's rate feeding one overprovisioned core link
// — loads every user with two backlogged flows (the worst case for
// contention), and evaluates the paper's prerequisites over every flow
// pair plus the realized utilizations.
func runAccess(sp scenario.Spec, sc *obs.Scope) (*AccessResult, error) {
	sp = withDefaults(sp, accessDefaults)
	dur := sp.Duration()
	warm := dur / 4
	w := [][2]time.Duration{{warm, dur}}
	// Hop 0 is the core, hop 1+u user u's access link; user u's flows
	// are a Cubic and a Reno transfer over its access link and the core.
	hops := []hop{{name: "core", rateBps: accessCoreRateBps, delay: 5 * time.Millisecond, bufRTT: accessRTT}}
	var flows []flow
	for u := 0; u < accessUsers; u++ {
		hops = append(hops, hop{name: fmt.Sprintf("access-%d", u), rateBps: sp.RateBps,
			delay: 10 * time.Millisecond, bufRTT: accessRTT})
		path := []int{1 + u, 0}
		flows = append(flows,
			flow{id: u*10 + 1, user: u, path: path, cc: cca.NewCubicCC(), watch: w},
			flow{id: u*10 + 2, user: u, path: path, cc: cca.NewRenoCC(), watch: w})
	}
	c, err := newCell(cellSpec{hops: hops, flows: flows, obs: sc})
	if err != nil {
		return nil, fmt.Errorf("core: access: %w", err)
	}
	defer c.release()
	c.eng.Run(dur)

	res := &AccessResult{sp: sp, PerUserTputBps: make([]float64, accessUsers)}
	res.CoreUtilization = c.links[0].Utilization(c.eng.Now())
	infos := make([]*contention.FlowInfo, len(flows))
	for i, f := range flows {
		path, _ := c.route(f.path)
		infos[i] = &contention.FlowInfo{ID: f.id, Path: path}
		res.PerUserTputBps[f.user] += c.src[i].flow.Throughput(warm, dur)
	}
	for i := range flows {
		for j := i + 1; j < len(flows); j++ {
			// Every path ends at the core, so a pair that shares any
			// link shares the core.
			shared, _, contend := contention.Prerequisites(infos[i], infos[j])
			if shared {
				res.PairsSharingCore++
			}
			if contend {
				if flows[i].user == flows[j].user {
					res.IntraUserPairs++
				} else {
					res.InterUserPairs++
				}
			}
		}
	}
	return res, nil
}

// WriteTable renders the outcome.
func (r *AccessResult) WriteTable(w io.Writer) {
	fmt.Fprintf(w, "exp-access (§2.2): %d users x 2 backlogged flows, %s access links behind a %s core\n",
		accessUsers, FmtBps(r.sp.RateBps), FmtBps(accessCoreRateBps))
	fmt.Fprintf(w, "core utilization:                  %5.1f%% (provisioned, never a bottleneck)\n",
		100*r.CoreUtilization)
	fmt.Fprintf(w, "flow pairs sharing the core:       %d\n", r.PairsSharingCore)
	fmt.Fprintf(w, "pairs meeting all 3 prerequisites: %d intra-user, %d inter-user\n",
		r.IntraUserPairs, r.InterUserPairs)
	for u, t := range r.PerUserTputBps {
		fmt.Fprintf(w, "user %d aggregate: %s\n", u, FmtBps(t))
	}
}
