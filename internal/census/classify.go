package census

import (
	"encoding/json"
	"math"

	"repro/internal/core"
	"repro/internal/scenario"
)

// Classification labels what determined one sampled path's outcome, in
// the paper's taxonomy: contention between CCAs at a shared queue,
// the CCA's own (self-inflicted) dynamics, or neither distinguishably.
type Classification string

const (
	// ClassContention: the paths share a bottleneck queue and the
	// allocation deviates substantially from the fair split — CCA
	// contention determined who got what.
	ClassContention Classification = "contention-dominated"
	// ClassSelfInflicted: either the discipline isolates the flows (so
	// contention cannot determine the allocation) or the pair leaves
	// the link badly underutilized — the CCA's own dynamics, not the
	// other flow, produced the outcome.
	ClassSelfInflicted Classification = "self-inflicted"
	// ClassInconclusive: the run failed, produced non-finite numbers,
	// or landed close enough to fair full utilization that neither
	// label is defensible.
	ClassInconclusive Classification = "inconclusive"
)

// Thresholds for the classifier, exported so reports can state them.
const (
	// DeviationFrac is the relative deviation from the fair share
	// beyond which a shared-queue allocation counts as
	// contention-determined.
	DeviationFrac = 0.2
	// UtilFloor is the utilization below which a cell's shortfall is
	// attributed to the CCAs themselves rather than to contention.
	UtilFloor = 0.5
)

// Obs is one classified census cell: the class plus the observables
// the aggregate folds into its per-stratum sketches.
type Obs struct {
	Class Classification
	// Queue and Fault locate the cell's stratum.
	Queue, Fault string
	// Jain is the two-flow Jain fairness index; Util the combined
	// post-warmup utilization of the bottleneck. Both are valid only
	// when Class != ClassInconclusive or Err is empty.
	Jain, Util float64
	// Err carries the run error for failed cells.
	Err string
}

// isolatedQueue reports whether the discipline gives each flow its own
// queue at the bottleneck — per-flow or per-user scheduling — versus
// an aggregate FIFO/shaper/policer where the flows' packets compete in
// one queue.
func isolatedQueue(queue string) bool {
	switch queue {
	case "fq", "fq_codel", "sfq", "user-iso":
		return true
	default: // droptail, shaper, policer
		return false
	}
}

// Classify labels one census run. The stratum (queue, fault) comes
// from the spec so even failed runs land in the right cell; the class
// is read off the cell's own core.DuelResult, decoded from the run's
// canonical result record.
func Classify(res scenario.RunResult) Obs {
	o := Obs{Queue: res.Spec.Queue, Fault: res.Spec.FaultProfile}
	if o.Fault == "" {
		o.Fault = "clean"
	}
	if res.Err != "" {
		o.Class, o.Err = ClassInconclusive, res.Err
		return o
	}
	var d core.DuelResult
	if err := json.Unmarshal(res.Result, &d); err != nil {
		o.Class, o.Err = ClassInconclusive, "undecodable result: "+err.Error()
		return o
	}
	rate := d.Config.RateBps
	t1, t2 := d.Tput1Bps, d.Tput2Bps
	if !(rate > 0) || math.IsNaN(t1) || math.IsNaN(t2) || t1 < 0 || t2 < 0 {
		o.Class, o.Err = ClassInconclusive, "non-finite duel outcome"
		return o
	}
	o.Jain = d.Jain
	o.Util = (t1 + t2) / rate

	// The cell's ground-truth topology: two backlogged flows through
	// one bottleneck link. The paper's prerequisites (i) and (ii)
	// always hold by construction; (iii) — same queue — is the
	// discipline's call. The fair split is half the link each.
	solo := rate / 2
	switch {
	case isolatedQueue(string(d.Config.Queue)):
		// The discipline removed prerequisite (iii): whatever each
		// flow achieves in its own queue is its own doing.
		o.Class = ClassSelfInflicted
	case o.Util < UtilFloor:
		// Shared queue but half the link idle: the CCAs are starving
		// themselves (lossy path, timid controller), not each other.
		o.Class = ClassSelfInflicted
	case math.Abs(solo-t1)/solo > DeviationFrac || math.Abs(solo-t2)/solo > DeviationFrac:
		// Shared queue, link busy, allocation far from the fair
		// split: contention between the CCAs decided it.
		o.Class = ClassContention
	default:
		o.Class = ClassInconclusive
	}
	return o
}
