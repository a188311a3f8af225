package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"

	"repro/internal/faults"
)

// Grid declares a sweep: a base spec plus axes whose cross product
// expands into one spec per point. Empty axes leave the base value in
// place. Expansion order is fixed (pairs, then queues, then fault
// profiles, then seeds), so the expanded list — and therefore the
// sweep's result ordering — is stable across runs and machines.
type Grid struct {
	// Base is the spec every point starts from; Base.Experiment names
	// the experiment.
	Base Spec `json:"base"`
	// Pairs varies a CCA pairing (sets the point's ccas to the pair).
	Pairs [][2]string `json:"pairs,omitempty"`
	// Queues varies the bottleneck discipline.
	Queues []string `json:"queues,omitempty"`
	// FaultProfiles varies the impairment profile ("clean" for none —
	// the registered clean profile keeps the axis uniform).
	FaultProfiles []string `json:"fault_profiles,omitempty"`
	// Seeds varies the workload seed.
	Seeds []int64 `json:"seeds,omitempty"`
	// DeriveSeeds, when set, gives every point its own seed derived
	// from (base seed, point axes) — deterministic, independent of
	// expansion order, and distinct across points — and, for points
	// with a fault profile but no explicit fault seed, a fault seed
	// derived the same way. Use it when every grid point should see an
	// independent random stream without enumerating seeds by hand.
	DeriveSeeds bool `json:"derive_seeds,omitempty"`
}

// ParseGrid decodes a grid file, rejecting unknown fields so a typo'd
// axis name fails loudly instead of silently sweeping nothing.
func ParseGrid(b []byte) (Grid, error) {
	var g Grid
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&g); err != nil {
		return Grid{}, fmt.Errorf("scenario: parse grid: %w", err)
	}
	return g, nil
}

// choice is one point on one axis: a label (for derived seeds) and a
// spec mutation. A zero choice is the identity an empty axis
// contributes.
type choice struct {
	label string
	apply func(*Spec)
}

// axes validates the grid and builds its choice lists in canonical
// order: pairs, queues, fault profiles, seeds.
func (g Grid) axes() ([4][]choice, error) {
	if g.Base.Experiment == "" {
		return [4][]choice{}, fmt.Errorf("scenario: grid has no base.experiment")
	}

	// Each axis contributes a list of (label, mutation) choices; an
	// empty axis contributes the identity.
	axis := func(cs []choice) []choice {
		if len(cs) == 0 {
			return []choice{{}}
		}
		return cs
	}

	var pairAxis []choice
	for _, p := range g.Pairs {
		p := p
		pairAxis = append(pairAxis, choice{
			label: "pair=" + p[0] + "/" + p[1],
			apply: func(sp *Spec) { sp.CCAs = []string{p[0], p[1]} },
		})
	}
	var queueAxis []choice
	for _, q := range g.Queues {
		q := q
		queueAxis = append(queueAxis, choice{
			label: "queue=" + q,
			apply: func(sp *Spec) { sp.Queue = q },
		})
	}
	var faultAxis []choice
	for _, f := range g.FaultProfiles {
		f := f
		faultAxis = append(faultAxis, choice{
			label: "faults=" + f,
			apply: func(sp *Spec) {
				if f == "clean" {
					sp.FaultProfile = ""
					return
				}
				sp.FaultProfile = f
			},
		})
	}
	var seedAxis []choice
	for _, s := range g.Seeds {
		s := s
		seedAxis = append(seedAxis, choice{
			label: fmt.Sprintf("seed=%d", s),
			apply: func(sp *Spec) { sp.Seed = s },
		})
	}

	return [4][]choice{axis(pairAxis), axis(queueAxis), axis(faultAxis), axis(seedAxis)}, nil
}

// point materializes the spec at one choice tuple.
func (g Grid) point(cs [4]choice) Spec {
	sp := g.Base
	key := ""
	for _, c := range cs {
		if c.apply != nil {
			c.apply(&sp)
			key += c.label + ";"
		}
	}
	if g.DeriveSeeds {
		sp.Seed = faults.DeriveSeed(g.Base.Seed, "point:"+key)
		if sp.FaultProfile != "" && sp.FaultSeed == 0 {
			sp.FaultSeed = faults.DeriveSeed(sp.Seed, "fault")
		}
	}
	return sp
}

// Expand returns the grid's specs in canonical order: the cross
// product of its axes, innermost (seeds) fastest.
func (g Grid) Expand() ([]Spec, error) {
	axes, err := g.axes()
	if err != nil {
		return nil, err
	}
	specs := make([]Spec, 0, len(axes[0])*len(axes[1])*len(axes[2])*len(axes[3]))
	for _, p := range axes[0] {
		for _, q := range axes[1] {
			for _, f := range axes[2] {
				for _, s := range axes[3] {
					specs = append(specs, g.point([4]choice{p, q, f, s}))
				}
			}
		}
	}
	return specs, nil
}
