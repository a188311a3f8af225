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
// order. Both the streaming source and the materialized expansion are
// derived from this single definition, so they cannot drift.
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

// gridSource walks the axis cross product odometer-style — innermost
// axis (seeds) fastest — producing exactly the order the historical
// nested-loop expansion did, one spec at a time.
type gridSource struct {
	g    Grid
	axes [4][]choice
	idx  [4]int
	done bool
}

// Source returns a streaming SpecSource over the grid's cross product
// in canonical expansion order. It validates the grid up front, so a
// bad grid fails before the sweep starts rather than mid-stream.
func (g Grid) Source() (SpecSource, error) {
	axes, err := g.axes()
	if err != nil {
		return nil, err
	}
	return &gridSource{g: g, axes: axes}, nil
}

func (s *gridSource) Next() (Spec, bool, error) {
	if s.done {
		return Spec{}, false, nil
	}
	sp := s.g.point([4]choice{
		s.axes[0][s.idx[0]], s.axes[1][s.idx[1]], s.axes[2][s.idx[2]], s.axes[3][s.idx[3]],
	})
	// Advance the odometer from the innermost axis outward.
	for i := 3; ; i-- {
		s.idx[i]++
		if s.idx[i] < len(s.axes[i]) {
			break
		}
		s.idx[i] = 0
		if i == 0 {
			s.done = true
			break
		}
	}
	return sp, true, nil
}

func (s *gridSource) Count() (int, bool) {
	n := 1
	for _, axis := range s.axes {
		n *= len(axis)
	}
	return n, true
}

// Expand returns the grid's specs in canonical order, materialized.
// It is a thin collect over Source; streaming callers should pull from
// Source directly and skip the allocation.
func (g Grid) Expand() ([]Spec, error) {
	src, err := g.Source()
	if err != nil {
		return nil, err
	}
	return Collect(src)
}
