package hunt

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/scenario"
)

// DecodeOutcome unpacks a huntcell RunResult into the cell's own
// result type, from the canonical result JSON the RunResult carries.
// Decoding from the canonical bytes — not from a live value — means
// cached and fresh evaluations are literally indistinguishable to the
// objectives.
func DecodeOutcome(res scenario.RunResult) (*core.HuntCellResult, error) {
	if res.Err != "" {
		return nil, errors.New(res.Err)
	}
	var o core.HuntCellResult
	if err := json.Unmarshal(res.Result, &o); err != nil {
		return nil, fmt.Errorf("hunt: decode outcome: %w", err)
	}
	return &o, nil
}

// sanitize guards the fitness landscape: a NaN or infinite score (a
// degenerate run, a zero denominator upstream) becomes 0 — never
// selected, never crowned best — and finite scores clamp to [0, 2].
func sanitize(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
		return 0
	}
	if v > 2 {
		return 2
	}
	return v
}

// crossShare is the cross traffic's fraction of the raw link rate
// (fair share is half the link, so twice it is the full rate). The
// victim-mode objectives use it as their tiebreak term: it rewards
// contention — cross traffic thriving while the victim starves — over
// the degenerate blackout that merely kills both flows. Deliberately
// unclamped above 1 (rate oscillation can lift instantaneous capacity
// past nominal): clamping there would recreate a reachable plateau of
// ties, while the raw ratio is physically bounded and keeps a strict
// gradient all the way up; sanitize caps the combined score at 2.
func crossShare(o *core.HuntCellResult) float64 {
	if o.FairShareBps <= 0 {
		return 0
	}
	v := o.CrossTputBps / (2 * o.FairShareBps)
	if math.IsNaN(v) || v < 0 {
		return 0
	}
	return v
}

// clamp01 clamps with the same NaN guard, for score components.
func clamp01(v float64) float64 {
	if math.IsNaN(v) || v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// Objective is a pluggable fitness function: higher scores mean a more
// pathological scenario. Probe selects the huntcell's probe mode; Twin
// asks the evaluator for a second, fault-stripped run of the same
// genome (the verdict-flip objective compares the two).
type Objective struct {
	Name string
	Desc string
	// Probe runs the cell in probe mode; Twin adds the clean-twin run.
	Probe bool
	Twin  bool
	// Score maps the outcome(s) to fitness; clean is nil unless Twin.
	Score func(faulted, clean *core.HuntCellResult) float64
}

// objectives is the registry, in the order `ccac hunt` lists them.
var objectives = []Objective{
	{
		Name: "harm",
		Desc: "maximize Ware-style harm to the victim flow vs its half-link fair share",
		// Harm alone saturates at 1.0 once the victim is fully starved
		// — trivially reachable by blacking the whole link out — and
		// the landscape becomes a plateau of ties. The cross-share term
		// demands the paper's actual pathology instead: cross traffic
		// thriving while the victim starves. Its top (cross monopolizing
		// the raw link rate) is asymptotic, never exactly reached, so
		// the landscape keeps a gradient all the way up.
		Score: func(o, _ *core.HuntCellResult) float64 {
			return clamp01(o.Harm) + 0.25*crossShare(o)
		},
	},
	{
		Name: "unfair",
		Desc: "minimize Jain fairness between the victim and the cross traffic",
		// Jain over two live flows lives in [0.5, 1], so the first term
		// spans [0, 1]; a dead link (both allocations zero) hits the
		// index's zero-denominator guard and is scored 0, not crowned.
		// The cross-share term makes the top asymptotic as in harm.
		Score: func(o, _ *core.HuntCellResult) float64 {
			if o.MainTputBps <= 0 && o.CrossTputBps <= 0 {
				return 0
			}
			return clamp01(2*(1-o.Jain)) + 0.25*crossShare(o)
		},
	},
	{
		Name:  "elastic-miss",
		Desc:  "make the Nimbus estimator misclassify cross-traffic elasticity",
		Probe: true,
		Score: func(o, _ *core.HuntCellResult) float64 {
			if o.Decided == 0 {
				return 0
			}
			miss := float64(o.Misclassified) / float64(o.Decided)
			// Continuous tiebreak: pushing a truth-elastic phase's mean
			// eta down (or a truth-inelastic one's up) moves it toward
			// the wrong side of the threshold, so the search has a
			// gradient even before the first verdict actually flips.
			var wrongward float64
			for _, p := range o.Phases {
				if !p.Decided {
					continue
				}
				if p.TruthElastic {
					wrongward += clamp01(1 - p.MeanEta)
				} else {
					wrongward += clamp01(p.MeanEta)
				}
			}
			return clamp01(miss) + 0.25*wrongward/float64(o.Decided)
		},
	},
	{
		Name:  "flip",
		Desc:  "flip the probe's per-phase verdicts between the faulted link and its clean twin",
		Probe: true,
		Twin:  true,
		Score: func(o, clean *core.HuntCellResult) float64 {
			if clean == nil || len(o.Phases) != len(clean.Phases) {
				return 0
			}
			var compared, flips int
			var shift float64
			for i, p := range o.Phases {
				c := clean.Phases[i]
				if !p.Decided || !c.Decided {
					continue
				}
				compared++
				if p.ProbeElastic != c.ProbeElastic {
					flips++
				}
				shift += clamp01(math.Abs(p.MeanEta - c.MeanEta))
			}
			if compared == 0 {
				return 0
			}
			return float64(flips)/float64(compared) + 0.25*shift/float64(compared)
		},
	},
}

// Objectives returns the registered objectives in listing order.
func Objectives() []Objective {
	return append([]Objective(nil), objectives...)
}

// ObjectiveNames returns the names in listing order.
func ObjectiveNames() []string {
	names := make([]string, len(objectives))
	for i, o := range objectives {
		names[i] = o.Name
	}
	return names
}

// LookupObjective resolves a name.
func LookupObjective(name string) (Objective, error) {
	for _, o := range objectives {
		if o.Name == name {
			return o, nil
		}
	}
	return Objective{}, fmt.Errorf("hunt: unknown objective %q (have %v)", name, ObjectiveNames())
}

// DefaultBounds returns the search space matched to the objective's
// evaluation mode.
func (o Objective) DefaultBounds() Bounds {
	if o.Probe {
		return ProbeBounds()
	}
	return VictimBounds()
}
