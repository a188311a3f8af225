// Package hunt is the adversarial scenario search: a guided optimizer
// (a genetic population with tournament selection, crossover and
// immigration) over genomes that encode a fault profile and a
// cross-traffic schedule, evaluated by running the decoded genome
// through the scenario runner's huntcell experiment against a
// pluggable objective — Ware-style harm to a victim flow,
// Jain unfairness, elasticity misclassification by the Nimbus
// estimator, or probe-verdict flips between a faulted link and its
// clean twin.
//
// Everything is deterministic and replayable: every random draw comes
// from a child seed derived via faults.DeriveSeed from (hunt seed,
// generation, index), genome floats live on fixed quantization grids
// so revisited genomes hash — and therefore cache — identically, and
// evaluation goes through Runner.Sweep, whose results are keyed to
// input order. The same hunt at any worker count, cache-cold or
// cache-warm, produces byte-identical results.
package hunt

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/faults"
	"repro/internal/scenario"
	"repro/internal/traffic"
)

// Genome is one point in the search space: an inline fault config for
// the bottleneck plus a cross-traffic schedule. It deliberately holds
// no link or seed parameters — those are fixed per hunt (see Params),
// so the search varies only the environment's hostility, never the
// measurement procedure.
type Genome struct {
	Fault faults.Config   `json:"fault"`
	Cross []traffic.Phase `json:"cross"`
}

// Bounds confines the genome space. The caps keep every decoded
// scenario both physically sensible and score-distinguishable: the
// outage budget, for instance, stops the harm objective from
// saturating at 1.0 by simply blacking the link out, which would turn
// the fitness landscape into a plateau of ties.
type Bounds struct {
	// MaxPhases, MinPhaseS, MaxPhaseS, PhaseStepS shape the schedule.
	MaxPhases  int
	MinPhaseS  float64
	MaxPhaseS  float64
	PhaseStepS float64

	// MaxLossProb caps the loss probability; the other impairments'
	// caps are the constants below, the same in every search space.
	MaxLossProb float64

	// MaxOutages/MaxOutageS cap individual windows; OutageFrac caps
	// their summed length as a fraction of the schedule duration.
	MaxOutages int
	MaxOutageS float64
	OutageFrac float64
}

// Caps every search space shares: duplication, reordering and jitter,
// and the rate oscillation's amplitude and period range.
const (
	maxDupProb        = 0.02
	maxReorderProb    = 0.05
	maxReorderDelayMs = 40
	maxJitterMs       = 30
	maxOscAmp         = 0.6
	minOscPeriodS     = 0.5
	maxOscPeriodS     = 8
)

// VictimBounds is the search space for the victim-flow objectives
// (harm, unfairness): short phases, a generous impairment palette.
func VictimBounds() Bounds {
	return Bounds{
		MaxPhases: 4, MinPhaseS: 3, MaxPhaseS: 8, PhaseStepS: 0.5,
		MaxLossProb: 0.05, MaxOutages: 3, MaxOutageS: 2, OutageFrac: 0.15,
	}
}

// ProbeBounds is the search space for the probe objectives
// (elasticity misclassification, verdict flips): phases long enough
// for the estimator to emit verdict windows, a tighter outage budget
// so the probe is misled rather than silenced.
func ProbeBounds() Bounds {
	return Bounds{
		MaxPhases: 3, MinPhaseS: 12, MaxPhaseS: 18, PhaseStepS: 1,
		MaxLossProb: 0.03, MaxOutages: 2, MaxOutageS: 1.5, OutageFrac: 0.06,
	}
}

// Quantization grids. Genome floats only ever take values on these
// grids, so two genomes that wander to the same point encode to the
// same canonical JSON, hash identically, and hit the runner cache.
const (
	probStep   = 0.005 // probabilities
	msStep     = 1.0   // millisecond delays
	ampStep    = 0.05  // oscillation amplitude
	periodStep = 0.25  // oscillation period (s)
	phaseStep  = 0.05  // oscillation phase fraction
	outStep    = 0.1   // outage window edges (s)
)

// Gilbert–Elliott sub-bounds: burst losses stay bursty (rare
// good→bad, non-trivial loss in bad) instead of degenerating into
// i.i.d. loss the LossProb knob already covers.
const (
	maxGEPGoodBad = 0.05
	minGEPBadGood = 0.05
	maxGEPBadGood = 0.5
	minGELossBad  = 0.2
	// maxGEEffLoss caps the chain's stationary loss rate
	// (duty × LossBad, duty = PGoodBad/(PGoodBad+PBadGood)). Without
	// it, a long-burst/total-loss chain is a stealth outage that evades
	// the outage budget, kills the whole link, and collapses the
	// victim objectives onto a saturation plateau of ties.
	maxGEEffLoss = 0.12
)

// quant snaps v to the grid. Deterministic and idempotent: the grid
// point re-quantizes to itself.
func quant(v, step float64) float64 {
	return math.Round(v/step) * step
}

// floorQuant snaps v down to the grid (for budget trims that must
// never round upward past the budget).
func floorQuant(v, step float64) float64 {
	return math.Floor(v/step) * step
}

// clampQ clamps v into [lo, hi] and quantizes. Quantization happens
// before the bound check: a grid step like 0.05 is not exactly
// representable, so quant can land a hair past the bound (0.6 snaps to
// 0.6000000000000001) — clamping last keeps the result in range and
// makes the function a true projection (idempotent).
func clampQ(v, lo, hi, step float64) float64 {
	if math.IsNaN(v) || v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	q := quant(v, step)
	if q < lo {
		return lo
	}
	if q > hi {
		return hi
	}
	return q
}

// uniformQ draws uniformly from [lo, hi] on the grid.
func uniformQ(rng *rand.Rand, lo, hi, step float64) float64 {
	return clampQ(lo+rng.Float64()*(hi-lo), lo, hi, step)
}

// Clone deep-copies the genome (the GE pointer and both slices).
func (g Genome) Clone() Genome {
	out := g
	if g.Fault.GE != nil {
		ge := *g.Fault.GE
		out.Fault.GE = &ge
	}
	out.Fault.Outages = append([]faults.WindowSpec(nil), g.Fault.Outages...)
	out.Cross = append([]traffic.Phase(nil), g.Cross...)
	return out
}

// Duration is the decoded scenario's total length (the schedule's).
func (g Genome) Duration() float64 {
	var total float64
	for _, p := range g.Cross {
		total += p.DurS
	}
	return total
}

// Canonical returns the genome snapped into the bounds: schedule
// clamped to [1, MaxPhases] phases on the duration grid, every fault
// knob clamped and quantized, outages sorted, merged, clipped to the
// schedule, and trimmed to the outage budget. Canonical is idempotent,
// and a canonical genome JSON-round-trips to identical bytes.
func (g Genome) Canonical(b Bounds) Genome {
	g = g.Clone()

	// Schedule first: the outage budget depends on its total length.
	if len(g.Cross) == 0 {
		g.Cross = []traffic.Phase{{Kind: "idle", DurS: clampQ(b.MinPhaseS, b.MinPhaseS, b.MaxPhaseS, b.PhaseStepS)}}
	}
	if len(g.Cross) > b.MaxPhases {
		g.Cross = g.Cross[:b.MaxPhases]
	}
	for i := range g.Cross {
		g.Cross[i].DurS = clampQ(g.Cross[i].DurS, b.MinPhaseS, b.MaxPhaseS, b.PhaseStepS)
	}
	dur := g.Duration()

	f := &g.Fault
	f.LossProb = clampQ(f.LossProb, 0, b.MaxLossProb, probStep)
	f.DupProb = clampQ(f.DupProb, 0, maxDupProb, probStep)
	f.ReorderProb = clampQ(f.ReorderProb, 0, maxReorderProb, probStep)
	f.ReorderDelayMs = clampQ(f.ReorderDelayMs, 0, maxReorderDelayMs, msStep)
	if f.ReorderProb == 0 {
		f.ReorderDelayMs = 0
	}
	f.JitterMs = clampQ(f.JitterMs, 0, maxJitterMs, msStep)
	if f.GE != nil {
		f.GE.PGoodBad = clampQ(f.GE.PGoodBad, 0, maxGEPGoodBad, probStep)
		f.GE.PBadGood = clampQ(f.GE.PBadGood, minGEPBadGood, maxGEPBadGood, probStep)
		f.GE.LossGood = 0
		f.GE.LossBad = clampQ(f.GE.LossBad, minGELossBad, 1, probStep)
		if f.GE.PGoodBad == 0 {
			f.GE = nil
		} else {
			// Enforce the stationary-loss cap by trimming LossBad. The
			// floor never conflicts: duty ≤ 0.5, so even minGELossBad
			// stays within maxGEEffLoss.
			duty := f.GE.PGoodBad / (f.GE.PGoodBad + f.GE.PBadGood)
			if cap := floorQuant(maxGEEffLoss/duty, probStep); f.GE.LossBad > cap {
				f.GE.LossBad = math.Max(minGELossBad, cap)
			}
		}
	}

	// Outages: snap to the grid, clip to the schedule, canonicalize
	// (sort + merge), then trim to the budget.
	var ws []faults.WindowSpec
	for _, w := range f.Outages {
		start := clampQ(w.StartS, 0, floorQuant(dur, outStep), outStep)
		end := clampQ(w.EndS, 0, floorQuant(dur, outStep), outStep)
		if end > start+b.MaxOutageS {
			end = start + b.MaxOutageS
		}
		if end > start {
			ws = append(ws, faults.WindowSpec{StartS: start, EndS: end})
		}
	}
	f.Outages = ws
	*f = f.Canonical()
	// Merging can fuse windows into one longer than the per-window cap;
	// re-clip the merged result (shrinking sorted, disjoint windows
	// keeps them sorted and disjoint).
	for i, w := range f.Outages {
		if w.EndS-w.StartS > b.MaxOutageS {
			f.Outages[i].EndS = w.StartS + b.MaxOutageS
		}
	}
	if len(f.Outages) > b.MaxOutages {
		f.Outages = f.Outages[:b.MaxOutages]
	}
	budget := floorQuant(b.OutageFrac*dur, outStep)
	var used float64
	for i, w := range f.Outages {
		length := w.EndS - w.StartS
		if used+length <= budget {
			used += length
			continue
		}
		// This window crosses the budget: trim it to what remains (on
		// the grid, rounding down) and drop the rest.
		remaining := floorQuant(budget-used, outStep)
		if remaining > 0 {
			f.Outages[i].EndS = w.StartS + remaining
			f.Outages = f.Outages[:i+1]
		} else {
			f.Outages = f.Outages[:i]
		}
		break
	}
	if len(f.Outages) == 0 {
		f.Outages = nil
		f.DropDuringOutages = false
	}

	if f.OscAmp > 0 && f.OscPeriodS > 0 {
		f.OscAmp = clampQ(f.OscAmp, 0, maxOscAmp, ampStep)
		f.OscPeriodS = clampQ(f.OscPeriodS, minOscPeriodS, maxOscPeriodS, periodStep)
		f.OscPhase = clampQ(f.OscPhase, 0, 0.95, phaseStep)
	}
	// A mutation walk can push amp or period negative (or NaN); any
	// non-positive component disables the oscillation entirely.
	if !(f.OscAmp > 0) || !(f.OscPeriodS > 0) {
		f.OscAmp, f.OscPeriodS, f.OscPhase = 0, 0, 0
	}
	return g
}

// eps absorbs the float noise quantization can leave on grid points.
const eps = 1e-9

// Validate checks the genome against the bounds: a valid schedule
// within the phase caps, a valid fault config within the impairment
// caps, and the outage budget respected. Canonical(b) output always
// validates.
func (g Genome) Validate(b Bounds) error {
	if err := traffic.ValidateSchedule(g.Cross); err != nil {
		return fmt.Errorf("hunt: genome: %w", err)
	}
	if len(g.Cross) > b.MaxPhases {
		return fmt.Errorf("hunt: genome: %d phases exceed cap %d", len(g.Cross), b.MaxPhases)
	}
	for i, p := range g.Cross {
		if p.DurS < b.MinPhaseS-eps || p.DurS > b.MaxPhaseS+eps {
			return fmt.Errorf("hunt: genome: phase %d duration %v outside [%v, %v]", i, p.DurS, b.MinPhaseS, b.MaxPhaseS)
		}
	}
	if err := g.Fault.Validate(); err != nil {
		return fmt.Errorf("hunt: genome: %w", err)
	}
	f := g.Fault
	for _, knob := range []struct {
		name string
		v    float64
		max  float64
	}{
		{"loss_prob", f.LossProb, b.MaxLossProb},
		{"dup_prob", f.DupProb, maxDupProb},
		{"reorder_prob", f.ReorderProb, maxReorderProb},
		{"reorder_delay_ms", f.ReorderDelayMs, maxReorderDelayMs},
		{"jitter_ms", f.JitterMs, maxJitterMs},
		{"osc_amp", f.OscAmp, maxOscAmp},
	} {
		if knob.v > knob.max+eps {
			return fmt.Errorf("hunt: genome: %s %v exceeds cap %v", knob.name, knob.v, knob.max)
		}
	}
	if f.HasOscillation() && (f.OscPeriodS < minOscPeriodS-eps || f.OscPeriodS > maxOscPeriodS+eps) {
		return fmt.Errorf("hunt: genome: osc_period_s %v outside [%v, %v]", f.OscPeriodS, minOscPeriodS, maxOscPeriodS)
	}
	if f.GE != nil && f.GE.PGoodBad+f.GE.PBadGood > 0 {
		if eff := f.GE.LossBad * f.GE.PGoodBad / (f.GE.PGoodBad + f.GE.PBadGood); eff > maxGEEffLoss+eps {
			return fmt.Errorf("hunt: genome: GE stationary loss %v exceeds cap %v", eff, maxGEEffLoss)
		}
	}
	if len(f.Outages) > b.MaxOutages {
		return fmt.Errorf("hunt: genome: %d outages exceed cap %d", len(f.Outages), b.MaxOutages)
	}
	dur := g.Duration()
	var total float64
	for i, w := range f.Outages {
		if w.EndS-w.StartS > b.MaxOutageS+eps {
			return fmt.Errorf("hunt: genome: outage %d length %v exceeds cap %v", i, w.EndS-w.StartS, b.MaxOutageS)
		}
		if w.EndS > dur+eps {
			return fmt.Errorf("hunt: genome: outage %d ends at %v past the schedule (%v)", i, w.EndS, dur)
		}
		total += w.EndS - w.StartS
	}
	if total > b.OutageFrac*dur+outStep+eps {
		return fmt.Errorf("hunt: genome: total outage %vs exceeds budget %vs", total, b.OutageFrac*dur)
	}
	return nil
}

// Params fixes everything about a hunt's evaluations that is not part
// of the genome: whether the main flow is the probe, and the seeds.
// The link and the victim CCA are huntcell's defaults. It is stored
// alongside each corpus genome so replays are self-contained.
type Params struct {
	// Probe switches the main flow to the Nimbus elasticity probe.
	Probe bool `json:"probe,omitempty"`
	// Seed/FaultSeed drive the workload and fault injectors. They are
	// the same for every genome in a hunt: the search varies the
	// environment, never the dice.
	Seed      int64 `json:"seed"`
	FaultSeed int64 `json:"fault_seed"`
}

// Decode turns the genome into a runnable huntcell spec under the
// given fixed parameters. The mapping is canonical: equal genomes and
// params yield byte-identical specs (and therefore equal spec hashes).
func (g Genome) Decode(p Params) scenario.Spec {
	sp := scenario.Spec{
		Experiment: "huntcell",
		Seed:       p.Seed,
		Cross:      append([]traffic.Phase(nil), g.Cross...),
		Probe:      p.Probe,
		FaultSeed:  p.FaultSeed,
	}
	if !p.Probe {
		sp.CCAs = []string{"reno"} // the victim flow
	}
	if !g.Fault.IsZero() {
		f := g.Fault
		if f.GE != nil {
			ge := *f.GE
			f.GE = &ge
		}
		f.Outages = append([]faults.WindowSpec(nil), f.Outages...)
		sp.Fault = &f
	}
	return sp
}

// RandomGenome draws a genome from the bounds. Each impairment is
// enabled with moderate probability and a uniformly drawn magnitude,
// so random populations (and the random-search baseline) sample the
// whole space without concentrating on the hostile corner — finding
// that corner is the optimizer's job, not the prior's.
func RandomGenome(rng *rand.Rand, b Bounds) Genome {
	var g Genome
	kinds := traffic.PhaseKinds()
	n := 1 + rng.Intn(b.MaxPhases)
	for i := 0; i < n; i++ {
		g.Cross = append(g.Cross, traffic.Phase{
			Kind: kinds[rng.Intn(len(kinds))],
			DurS: uniformQ(rng, b.MinPhaseS, b.MaxPhaseS, b.PhaseStepS),
		})
	}
	if rng.Float64() < 0.5 {
		g.Fault.LossProb = uniformQ(rng, 0, b.MaxLossProb, probStep)
	}
	if rng.Float64() < 0.35 {
		g.Fault.GE = &faults.GESpec{
			PGoodBad: uniformQ(rng, probStep, maxGEPGoodBad, probStep),
			PBadGood: uniformQ(rng, minGEPBadGood, maxGEPBadGood, probStep),
			LossBad:  uniformQ(rng, minGELossBad, 1, probStep),
		}
	}
	if rng.Float64() < 0.25 {
		g.Fault.DupProb = uniformQ(rng, 0, maxDupProb, probStep)
	}
	if rng.Float64() < 0.3 {
		g.Fault.ReorderProb = uniformQ(rng, 0, maxReorderProb, probStep)
		g.Fault.ReorderDelayMs = uniformQ(rng, msStep, maxReorderDelayMs, msStep)
	}
	if rng.Float64() < 0.4 {
		g.Fault.JitterMs = uniformQ(rng, 0, maxJitterMs, msStep)
	}
	if b.MaxOutages > 0 && rng.Float64() < 0.5 {
		dur := g.Duration()
		nOut := 1 + rng.Intn(b.MaxOutages)
		for i := 0; i < nOut; i++ {
			start := uniformQ(rng, 0, dur, outStep)
			g.Fault.Outages = append(g.Fault.Outages, faults.WindowSpec{
				StartS: start,
				EndS:   start + uniformQ(rng, outStep, b.MaxOutageS, outStep),
			})
		}
		g.Fault.DropDuringOutages = rng.Float64() < 0.25
	}
	if rng.Float64() < 0.4 {
		g.Fault.OscAmp = uniformQ(rng, ampStep, maxOscAmp, ampStep)
		g.Fault.OscPeriodS = uniformQ(rng, minOscPeriodS, maxOscPeriodS, periodStep)
		g.Fault.OscPhase = uniformQ(rng, 0, 0.95, phaseStep)
	}
	return g.Canonical(b)
}

// Mutate returns a mutated copy: one or two random edits — nudging a
// float knob, toggling an impairment on or off, rewriting a phase —
// re-canonicalized into the bounds.
func (g Genome) Mutate(rng *rand.Rand, b Bounds) Genome {
	g = g.Clone()
	edits := 1 + rng.Intn(2)
	for e := 0; e < edits; e++ {
		g.mutateOnce(rng, b)
	}
	return g.Canonical(b)
}

// gauss is a bounded random walk step: a normal nudge scaled to a
// quarter of the knob's range.
func gauss(rng *rand.Rand, v, max float64) float64 {
	return v + rng.NormFloat64()*0.25*max
}

func (g *Genome) mutateOnce(rng *rand.Rand, b Bounds) {
	f := &g.Fault
	kinds := traffic.PhaseKinds()
	switch rng.Intn(10) {
	case 0: // i.i.d. loss
		f.LossProb = gauss(rng, f.LossProb, b.MaxLossProb)
	case 1: // GE burst loss: toggle or nudge
		if f.GE == nil {
			f.GE = &faults.GESpec{
				PGoodBad: uniformQ(rng, probStep, maxGEPGoodBad, probStep),
				PBadGood: uniformQ(rng, minGEPBadGood, maxGEPBadGood, probStep),
				LossBad:  uniformQ(rng, minGELossBad, 1, probStep),
			}
		} else if rng.Float64() < 0.2 {
			f.GE = nil
		} else {
			switch rng.Intn(3) {
			case 0:
				f.GE.PGoodBad = gauss(rng, f.GE.PGoodBad, maxGEPGoodBad)
			case 1:
				f.GE.PBadGood = gauss(rng, f.GE.PBadGood, maxGEPBadGood)
			case 2:
				f.GE.LossBad = gauss(rng, f.GE.LossBad, 1)
			}
		}
	case 2: // duplication / reordering
		if rng.Intn(2) == 0 {
			f.DupProb = gauss(rng, f.DupProb, maxDupProb)
		} else {
			f.ReorderProb = gauss(rng, f.ReorderProb, maxReorderProb)
			f.ReorderDelayMs = gauss(rng, f.ReorderDelayMs, maxReorderDelayMs)
		}
	case 3: // jitter
		f.JitterMs = gauss(rng, f.JitterMs, maxJitterMs)
	case 4: // outage add/drop/jiggle
		dur := g.Duration()
		switch {
		case len(f.Outages) == 0 || (len(f.Outages) < b.MaxOutages && rng.Float64() < 0.4):
			start := uniformQ(rng, 0, dur, outStep)
			f.Outages = append(f.Outages, faults.WindowSpec{
				StartS: start,
				EndS:   start + uniformQ(rng, outStep, b.MaxOutageS, outStep),
			})
		case rng.Float64() < 0.25:
			f.Outages = append(f.Outages[:0:0], f.Outages[1:]...)
		default:
			i := rng.Intn(len(f.Outages))
			w := f.Outages[i]
			length := w.EndS - w.StartS
			w.StartS = gauss(rng, w.StartS, dur/4)
			if w.StartS < 0 {
				w.StartS = 0
			}
			w.EndS = w.StartS + math.Max(outStep, gauss(rng, length, b.MaxOutageS))
			f.Outages[i] = w
		}
	case 5: // outage semantics
		f.DropDuringOutages = !f.DropDuringOutages
	case 6: // oscillation: toggle or nudge
		if !f.HasOscillation() {
			f.OscAmp = uniformQ(rng, ampStep, maxOscAmp, ampStep)
			f.OscPeriodS = uniformQ(rng, minOscPeriodS, maxOscPeriodS, periodStep)
			f.OscPhase = uniformQ(rng, 0, 0.95, phaseStep)
		} else if rng.Float64() < 0.2 {
			f.OscAmp, f.OscPeriodS, f.OscPhase = 0, 0, 0
		} else {
			switch rng.Intn(3) {
			case 0:
				f.OscAmp = gauss(rng, f.OscAmp, maxOscAmp)
			case 1:
				f.OscPeriodS = gauss(rng, f.OscPeriodS, maxOscPeriodS)
			case 2:
				f.OscPhase = math.Mod(f.OscPhase+rng.Float64(), 1)
			}
		}
	case 7: // rewrite a phase's kind
		g.Cross[rng.Intn(len(g.Cross))].Kind = kinds[rng.Intn(len(kinds))]
	case 8: // nudge a phase's duration
		i := rng.Intn(len(g.Cross))
		g.Cross[i].DurS = gauss(rng, g.Cross[i].DurS, b.MaxPhaseS-b.MinPhaseS)
	case 9: // grow or shrink the schedule
		if len(g.Cross) < b.MaxPhases && (len(g.Cross) == 1 || rng.Intn(2) == 0) {
			g.Cross = append(g.Cross, traffic.Phase{
				Kind: kinds[rng.Intn(len(kinds))],
				DurS: uniformQ(rng, b.MinPhaseS, b.MaxPhaseS, b.PhaseStepS),
			})
		} else if len(g.Cross) > 1 {
			i := rng.Intn(len(g.Cross))
			g.Cross = append(g.Cross[:i:i], g.Cross[i+1:]...)
		}
	}
}

// Crossover mixes two parents: each fault impairment group is
// inherited whole from one parent (a coin flip per group, so coupled
// knobs like a GE chain or an oscillation triple travel together), and
// the schedule is a one-point splice. The child is re-canonicalized.
func Crossover(a, b Genome, rng *rand.Rand, bounds Bounds) Genome {
	a, b = a.Clone(), b.Clone()
	var child Genome
	pick := func() *faults.Config {
		if rng.Intn(2) == 0 {
			return &a.Fault
		}
		return &b.Fault
	}
	child.Fault.LossProb = pick().LossProb
	child.Fault.GE = pick().GE
	child.Fault.DupProb = pick().DupProb
	{
		p := pick()
		child.Fault.ReorderProb = p.ReorderProb
		child.Fault.ReorderDelayMs = p.ReorderDelayMs
	}
	child.Fault.JitterMs = pick().JitterMs
	{
		p := pick()
		child.Fault.Outages = p.Outages
		child.Fault.DropDuringOutages = p.DropDuringOutages
	}
	{
		p := pick()
		child.Fault.OscAmp = p.OscAmp
		child.Fault.OscPeriodS = p.OscPeriodS
		child.Fault.OscPhase = p.OscPhase
	}
	// One-point schedule splice: a's head, b's tail.
	cut := rng.Intn(len(a.Cross) + 1)
	child.Cross = append(child.Cross, a.Cross[:cut]...)
	if cut < len(b.Cross) {
		child.Cross = append(child.Cross, b.Cross[cut:]...)
	}
	return child.Canonical(bounds)
}
