package core

import (
	"fmt"
	"io"
	"time"

	"repro/internal/cca"
	"repro/internal/contention"
	"repro/internal/obs"
)

// accessCoreRateBps is the shared core/peering link rate: 1 Gbit/s,
// provisioned for many subscribers.
const accessCoreRateBps = 1e9

// accessUsers is the number of subscribers, two flows each.
const accessUsers = 4

// accessRTT is every path's base round trip, access plus core, which
// each hop's buffer holds one BDP of.
const accessRTT = 30 * time.Millisecond

// AccessConfig parameterizes the §2.2 experiment: most paths are
// short, core/peering links are provisioned well below saturation
// (ISPs keep utilization under 60-70%, §2.1), so the *only* place the
// paper's three contention prerequisites can all hold is the access
// link — and only between one user's own flows.
type AccessConfig struct {
	// AccessRateBps is each subscriber's access rate (default
	// 50 Mbit/s).
	AccessRateBps float64
	// Duration is the run length (default 30s).
	Duration time.Duration
	// Obs, when non-nil, receives the run's trace events and metric
	// registrations.
	Obs *obs.Scope `json:"-"`
}

func (c AccessConfig) norm() AccessConfig {
	if c.AccessRateBps <= 0 {
		c.AccessRateBps = 50e6
	}
	if c.Duration <= 0 {
		c.Duration = 30 * time.Second
	}
	return c
}

// AccessResult is the experiment outcome.
type AccessResult struct {
	Config AccessConfig
	// CoreUtilization is the shared link's busy fraction.
	CoreUtilization float64
	// IntraUserPairs and InterUserPairs count flow pairs satisfying
	// all three contention prerequisites, by relationship.
	IntraUserPairs, InterUserPairs int
	// PairsSharingCore counts pairs sharing the core link at all.
	PairsSharingCore int
	// PerUserTputBps is each user's aggregate throughput.
	PerUserTputBps []float64
}

// RunAccess builds the topology — per-user access links feeding one
// overprovisioned core link — loads every user with two backlogged
// flows (the worst case for contention), and evaluates the paper's
// prerequisites over every flow pair plus the realized utilizations.
// The error return exists for signature uniformity with the other
// registered scenarios.
func RunAccess(cfg AccessConfig) (*AccessResult, error) {
	cfg = cfg.norm()
	warm := cfg.Duration / 4
	w := [][2]time.Duration{{warm, cfg.Duration}}
	// Hop 0 is the core, hop 1+u user u's access link; user u's flows
	// are a Cubic and a Reno transfer over its access link and the core.
	hops := []hop{{name: "core", rateBps: accessCoreRateBps, delay: 5 * time.Millisecond, bufRTT: accessRTT}}
	var flows []flow
	for u := 0; u < accessUsers; u++ {
		hops = append(hops, hop{name: fmt.Sprintf("access-%d", u), rateBps: cfg.AccessRateBps,
			delay: 10 * time.Millisecond, bufRTT: accessRTT})
		path := []int{1 + u, 0}
		flows = append(flows,
			flow{id: u*10 + 1, user: u, path: path, cc: cca.NewCubicCC(), watch: w},
			flow{id: u*10 + 2, user: u, path: path, cc: cca.NewRenoCC(), watch: w})
	}
	c, err := newCell(cellSpec{hops: hops, flows: flows, obs: cfg.Obs})
	if err != nil {
		return nil, fmt.Errorf("core: access: %w", err)
	}
	defer c.release()
	c.eng.Run(cfg.Duration)

	res := &AccessResult{Config: cfg, PerUserTputBps: make([]float64, accessUsers)}
	res.CoreUtilization = c.links[0].Utilization(c.eng.Now())
	infos := make([]*contention.FlowInfo, len(flows))
	for i, f := range flows {
		path, _ := c.route(f.path)
		infos[i] = &contention.FlowInfo{ID: f.id, Path: path}
		res.PerUserTputBps[f.user] += c.src[i].flow.Throughput(warm, cfg.Duration)
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
		accessUsers, FmtBps(r.Config.AccessRateBps), FmtBps(accessCoreRateBps))
	fmt.Fprintf(w, "core utilization:                  %5.1f%% (provisioned, never a bottleneck)\n",
		100*r.CoreUtilization)
	fmt.Fprintf(w, "flow pairs sharing the core:       %d\n", r.PairsSharingCore)
	fmt.Fprintf(w, "pairs meeting all 3 prerequisites: %d intra-user, %d inter-user\n",
		r.IntraUserPairs, r.InterUserPairs)
	for u, t := range r.PerUserTputBps {
		fmt.Fprintf(w, "user %d aggregate: %s\n", u, FmtBps(t))
	}
}
