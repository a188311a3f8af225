package faults

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"repro/internal/obs"
	"repro/internal/sim"
)

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

// Build wraps inner with the config's enabled queue-side injectors in
// canonical order — loss processes outermost (wire corruption happens
// before buffering), delay stages nearest the inner queue:
//
//	Loss → GilbertElliott → Duplicator → Reorderer → Jitter → Outage → inner
//
// Per-injector seeds derive deterministically from the single seed, so
// one (config, seed) pair replays byte-for-byte. The seed stream and
// the injectors' generators are eng's (sim.Engine.Rand): the chain
// belongs to a run on eng. The rate oscillation is capacity-side and
// does not fit the qdisc chain; see RateFunc.
func (c Config) Build(eng *sim.Engine, inner sim.Qdisc, seed int64) *Chain {
	seeds := eng.Rand(seed)
	sub := func() *rand.Rand { return eng.Rand(seeds.Int63()) }
	ch := &Chain{}
	q := inner
	if len(c.Outages) > 0 || c.hasFlaps() {
		o := NewPeriodicOutage(q, seconds(c.FlapPeriodS), seconds(c.FlapDownS))
		for _, w := range c.Outages {
			o.windows = append(o.windows, window{Start: seconds(w.StartS), End: seconds(w.EndS)})
		}
		o.DropDuring = c.DropDuringOutages
		ch.Outage = o
		q = o
	}
	if c.JitterMs > 0 {
		ch.Jitter = NewJitter(q, millis(c.JitterMs), sub())
		q = ch.Jitter
	}
	if c.ReorderProb > 0 {
		ch.Reorder = NewReorderer(q, c.ReorderProb, millis(c.ReorderDelayMs), sub())
		q = ch.Reorder
	}
	if c.DupProb > 0 {
		ch.Dup = NewDuplicator(q, c.DupProb, sub())
		q = ch.Dup
	}
	if c.GE != nil {
		ch.GE = NewGilbertElliott(q, *c.GE, sub())
		q = ch.GE
	}
	if c.LossProb > 0 {
		ch.Loss = NewLoss(q, c.LossProb, sub())
		q = ch.Loss
	}
	ch.outer = q
	return ch
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }
func millis(ms float64) time.Duration { return time.Duration(ms * float64(time.Millisecond)) }

// profiles is the named-scenario registry. Parameters are chosen so
// each scenario stresses a distinct failure mode while remaining
// survivable by a competent transport.
var profiles = map[string]struct {
	description string
	cfg         Config
}{
	"clean": {description: "no impairment (control)"},
	"wifi-bursty": {
		description: "Gilbert–Elliott burst loss with small jitter, a congested 802.11 link",
		cfg: Config{
			GE:       &GESpec{PGoodBad: 0.01, PBadGood: 0.3, LossGood: 0.0005, LossBad: 0.4},
			JitterMs: 3,
		},
	},
	"flaky-cellular": {
		description: "jitter, sparse loss, reordering, and a periodic 1.5s link flap",
		cfg: Config{
			LossProb:       0.005,
			JitterMs:       15,
			ReorderProb:    0.005,
			ReorderDelayMs: 30,
			FlapPeriodS:    20,
			FlapDownS:      1.5,
		},
	},
	"dsl-noise": {
		description: "light i.i.d. loss with mild reordering, a noisy wireline path",
		cfg:         Config{LossProb: 0.002, ReorderProb: 0.01, ReorderDelayMs: 5},
	},
	"satellite-jitter": {
		description: "heavy delay jitter with rare corruption loss",
		cfg:         Config{LossProb: 0.001, JitterMs: 40},
	},
}

// Lookup returns the named profile's config.
func Lookup(name string) (Config, error) {
	p, ok := profiles[name]
	if !ok {
		return Config{}, fmt.Errorf("faults: unknown profile %q (known: %v)", name, Names())
	}
	return p.cfg, nil
}

// Describe returns the named profile's one-line summary for listings,
// or "" for an unknown name.
func Describe(name string) string { return profiles[name].description }

// Names returns the registered profile names, sorted.
func Names() []string {
	ns := make([]string, 0, len(profiles))
	for n := range profiles {
		ns = append(ns, n)
	}
	sort.Strings(ns)
	return ns
}
