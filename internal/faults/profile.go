package faults

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"repro/internal/obs"
	"repro/internal/sim"
)

// Profile declares a composition of impairments. The zero value is a
// clean path. Build wraps a qdisc with the enabled injectors in
// canonical order — loss processes outermost (wire corruption happens
// before buffering), delay stages nearest the inner queue:
//
//	Loss → GilbertElliott → Duplicator → Reorderer → Jitter → Outage → inner
//
// Per-injector seeds derive deterministically from the single seed
// passed to Build, so one (profile, seed) pair replays byte-for-byte.
type Profile struct {
	// Name labels the profile in reports and the registry.
	Name string
	// Description is a one-line summary for listings.
	Description string

	// LossProb enables i.i.d. loss.
	LossProb float64
	// GE enables Gilbert–Elliott burst loss.
	GE *GEConfig
	// DupProb enables duplication.
	DupProb float64
	// ReorderProb and ReorderDelay enable probabilistic reordering.
	ReorderProb  float64
	ReorderDelay time.Duration
	// Jitter enables up to this much uniform extra per-packet delay.
	Jitter time.Duration
	// Flaps lists one-shot outage windows (sorted, non-overlapping).
	Flaps []Window
	// FlapPeriod/FlapDown enable a periodic outage schedule.
	FlapPeriod time.Duration
	FlapDown   time.Duration
	// DropDuringFlaps blackholes packets during outages instead of
	// buffering them.
	DropDuringFlaps bool
}

// Chain holds the injectors Build instantiated, for inspecting their
// counters after a run. Fields for disabled impairments are nil.
type Chain struct {
	Loss    *Loss
	GE      *GilbertElliott
	Dup     *Duplicator
	Reorder *Reorderer
	Jitter  *Jitter
	Outage  *Outage

	outer sim.Qdisc
}

// Qdisc returns the outermost wrapper, ready to attach to a link.
func (c *Chain) Qdisc() sim.Qdisc { return c.outer }

// SetTracer points every instantiated injector that can trace fault
// activations (loss, burst loss, outages) at t.
func (c *Chain) SetTracer(t obs.Tracer) {
	if c.Loss != nil {
		c.Loss.Trace = t
	}
	if c.GE != nil {
		c.GE.Trace = t
	}
	if c.Outage != nil {
		c.Outage.Trace = t
	}
}

// Build composes the profile's injectors around inner. Every injector
// gets its own sub-seed derived from seed.
func (p Profile) Build(inner sim.Qdisc, seed int64) *Chain {
	seeds := rand.New(rand.NewSource(seed))
	sub := func() int64 { return seeds.Int63() }
	ch := &Chain{}
	q := inner
	if len(p.Flaps) > 0 || (p.FlapPeriod > 0 && p.FlapDown > 0) {
		o := NewPeriodicOutage(q, p.FlapPeriod, p.FlapDown)
		o.windows = p.Flaps
		o.DropDuring = p.DropDuringFlaps
		ch.Outage = o
		q = o
	}
	if p.Jitter > 0 {
		ch.Jitter = NewJitter(q, p.Jitter, sub())
		q = ch.Jitter
	}
	if p.ReorderProb > 0 {
		ch.Reorder = NewReorderer(q, p.ReorderProb, p.ReorderDelay, sub())
		q = ch.Reorder
	}
	if p.DupProb > 0 {
		ch.Dup = NewDuplicator(q, p.DupProb, sub())
		q = ch.Dup
	}
	if p.GE != nil {
		ch.GE = NewGilbertElliott(q, *p.GE, sub())
		q = ch.GE
	}
	if p.LossProb > 0 {
		ch.Loss = NewLoss(q, p.LossProb, sub())
		q = ch.Loss
	}
	ch.outer = q
	return ch
}

// profiles is the named-scenario registry. Parameters are chosen so
// each scenario stresses a distinct failure mode while remaining
// survivable by a competent transport.
var profiles = map[string]Profile{
	"clean": {
		Name:        "clean",
		Description: "no impairment (control)",
	},
	"wifi-bursty": {
		Name:        "wifi-bursty",
		Description: "Gilbert–Elliott burst loss with small jitter, a congested 802.11 link",
		GE:          &GEConfig{PGoodBad: 0.01, PBadGood: 0.3, LossGood: 0.0005, LossBad: 0.4},
		Jitter:      3 * time.Millisecond,
	},
	"flaky-cellular": {
		Name:         "flaky-cellular",
		Description:  "jitter, sparse loss, reordering, and a periodic 1.5s link flap",
		LossProb:     0.005,
		Jitter:       15 * time.Millisecond,
		ReorderProb:  0.005,
		ReorderDelay: 30 * time.Millisecond,
		FlapPeriod:   20 * time.Second,
		FlapDown:     1500 * time.Millisecond,
	},
	"dsl-noise": {
		Name:         "dsl-noise",
		Description:  "light i.i.d. loss with mild reordering, a noisy wireline path",
		LossProb:     0.002,
		ReorderProb:  0.01,
		ReorderDelay: 5 * time.Millisecond,
	},
	"satellite-jitter": {
		Name:        "satellite-jitter",
		Description: "heavy delay jitter with rare corruption loss",
		LossProb:    0.001,
		Jitter:      40 * time.Millisecond,
	},
}

// Lookup returns the named profile.
func Lookup(name string) (Profile, error) {
	p, ok := profiles[name]
	if !ok {
		return Profile{}, fmt.Errorf("faults: unknown profile %q (known: %v)", name, Names())
	}
	return p, nil
}

// Names returns the registered profile names, sorted.
func Names() []string {
	ns := make([]string, 0, len(profiles))
	for n := range profiles {
		ns = append(ns, n)
	}
	sort.Strings(ns)
	return ns
}
