package core

import (
	"fmt"
	"io"
	"time"

	"repro/internal/cca"
	"repro/internal/contention"
	"repro/internal/obs"
	"repro/internal/qdisc"
	"repro/internal/sim"
	"repro/internal/transport"
)

// AccessConfig parameterizes the §2.2 experiment: most paths are
// short, core/peering links are provisioned well below saturation
// (ISPs keep utilization under 60-70%, §2.1), so the *only* place the
// paper's three contention prerequisites can all hold is the access
// link — and only between one user's own flows.
// accessCoreRateBps is the shared core/peering link rate: 1 Gbit/s,
// provisioned for many subscribers.
const accessCoreRateBps = 1e9

// accessUsers is the number of subscribers, two flows each.
const accessUsers = 4

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
	eng := newEngine()
	defer releaseEngine(eng, cfg.Obs)

	core := sim.NewLink(eng, "core", accessCoreRateBps, 5*time.Millisecond,
		qdisc.NewDropTailBDP(accessCoreRateBps, 30*time.Millisecond, 1))
	wireObs(cfg.Obs, eng, core)

	type flowInfo struct {
		flow *transport.Flow
		info *contention.FlowInfo
		user int
	}
	var flows []flowInfo
	warm := cfg.Duration / 4
	for u := 0; u < accessUsers; u++ {
		access := sim.NewLink(eng, fmt.Sprintf("access-%d", u), cfg.AccessRateBps,
			10*time.Millisecond, qdisc.NewDropTailBDP(cfg.AccessRateBps, 30*time.Millisecond, 1))
		wireObs(cfg.Obs, nil, access)
		for k := 0; k < 2; k++ {
			id := u*10 + k + 1
			var cc transport.CCA
			if k == 0 {
				cc = cca.NewCubicCC()
			} else {
				cc = cca.NewRenoCC()
			}
			f := transport.NewFlow(eng, transport.FlowConfig{
				ID: id, UserID: u,
				Path:        []*sim.Link{access, core},
				ReturnDelay: 15 * time.Millisecond,
				CC:          cc, Backlogged: true,
				Trace:   cfg.Obs.T(),
				Metrics: cfg.Obs.R(),
			})
			f.Watch(warm, cfg.Duration)
			f.Start()
			flows = append(flows, flowInfo{
				flow: f,
				user: u,
				info: &contention.FlowInfo{ID: id, Path: []*sim.Link{access, core}},
			})
		}
	}
	eng.Run(cfg.Duration)

	res := &AccessResult{Config: cfg}
	res.CoreUtilization = core.Utilization(eng.Now())
	for i := 0; i < len(flows); i++ {
		for j := i + 1; j < len(flows); j++ {
			a, b := flows[i], flows[j]
			// Every path ends at the core, so a pair that shares any
			// link shares the core.
			shared, _, contend := contention.Prerequisites(a.info, b.info)
			if shared {
				res.PairsSharingCore++
			}
			if contend {
				if a.user == b.user {
					res.IntraUserPairs++
				} else {
					res.InterUserPairs++
				}
			}
		}
	}
	perUser := make([]float64, accessUsers)
	for _, fi := range flows {
		perUser[fi.user] += fi.flow.Throughput(warm, cfg.Duration)
	}
	res.PerUserTputBps = perUser
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
