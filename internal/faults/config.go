package faults

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// Config describes an impaired bottleneck; the zero value is a clean
// path. It is the one vocabulary for faults: the named registry, a
// scenario spec's inline fault and a hunt genome all hold one, in
// float seconds/milliseconds so it is JSON-serializable and
// content-hashable. Build composes the queue-side impairments around a
// qdisc; the capacity-side one, a deterministic sinusoidal rate
// oscillation (amplitude, period, phase), is applied through RateFunc.
//
// A Config is canonical when Canonical() is the identity: outages
// sorted by start, non-overlapping, non-empty, and no negative knobs.
// Canonical configs re-encode to identical JSON bytes, which is what
// makes genome evaluation cacheable by spec hash.
type Config struct {
	// LossProb enables i.i.d. loss.
	LossProb float64 `json:"loss_prob,omitempty"`
	// GE enables Gilbert–Elliott burst loss.
	GE *GESpec `json:"ge,omitempty"`
	// DupProb enables duplication.
	DupProb float64 `json:"dup_prob,omitempty"`
	// ReorderProb and ReorderDelayMs enable probabilistic reordering.
	ReorderProb    float64 `json:"reorder_prob,omitempty"`
	ReorderDelayMs float64 `json:"reorder_delay_ms,omitempty"`
	// JitterMs enables up to this much uniform extra per-packet delay.
	JitterMs float64 `json:"jitter_ms,omitempty"`
	// Outages lists one-shot outage windows in seconds of virtual
	// time; sorted and non-overlapping when canonical.
	Outages []WindowSpec `json:"outages,omitempty"`
	// DropDuringOutages blackholes packets during outages instead of
	// buffering them.
	DropDuringOutages bool `json:"drop_during_outages,omitempty"`
	// FlapPeriodS/FlapDownS enable a periodic outage schedule: each
	// period the link is up for period-down, then down for down.
	FlapPeriodS float64 `json:"flap_period_s,omitempty"`
	FlapDownS   float64 `json:"flap_down_s,omitempty"`
	// OscAmp/OscPeriodS/OscPhase describe a sinusoidal link-rate
	// oscillation: rate(t) = base * (1 + amp*sin(2π(t/period + phase))).
	// Amp is a fraction of the base rate in [0, 1); phase a fraction of
	// the period in [0, 1). Zero amp or period disables oscillation.
	OscAmp     float64 `json:"osc_amp,omitempty"`
	OscPeriodS float64 `json:"osc_period_s,omitempty"`
	OscPhase   float64 `json:"osc_phase,omitempty"`
}

// GESpec parameterizes the two-state Gilbert–Elliott burst-loss
// model: per-packet transition probabilities between a Good and a Bad
// state, with an independent loss probability in each state.
type GESpec struct {
	// PGoodBad is the per-packet probability of entering the bad state.
	PGoodBad float64 `json:"p_good_bad"`
	// PBadGood is the per-packet probability of recovering; its inverse
	// is the mean burst length in packets (default 0.25 → 4 packets).
	PBadGood float64 `json:"p_bad_good"`
	// LossGood is the residual loss probability in the good state.
	LossGood float64 `json:"loss_good,omitempty"`
	// LossBad is the loss probability inside a burst (default 0.5).
	LossBad float64 `json:"loss_bad"`
}

func (c GESpec) norm() GESpec {
	if c.PBadGood <= 0 {
		c.PBadGood = 0.25
	}
	if c.LossBad <= 0 {
		c.LossBad = 0.5
	}
	return c
}

// WindowSpec is a half-open outage interval [StartS, EndS) in seconds
// of virtual time.
type WindowSpec struct {
	StartS float64 `json:"start_s"`
	EndS   float64 `json:"end_s"`
}

// IsZero reports whether the config enables no impairment at all.
func (c Config) IsZero() bool {
	return c.LossProb == 0 && c.GE == nil && c.DupProb == 0 &&
		c.ReorderProb == 0 && c.JitterMs == 0 && len(c.Outages) == 0 &&
		!c.hasFlaps() && !c.HasOscillation()
}

// hasFlaps reports whether the periodic outage schedule is enabled.
func (c Config) hasFlaps() bool {
	return c.FlapPeriodS > 0 && c.FlapDownS > 0
}

// HasOscillation reports whether the capacity-side impairment is
// enabled.
func (c Config) HasOscillation() bool {
	return c.OscAmp > 0 && c.OscPeriodS > 0
}

// prob validates one probability knob.
func prob(name string, v float64) error {
	if math.IsNaN(v) || v < 0 || v > 1 {
		return fmt.Errorf("faults: config %s = %v out of [0, 1]", name, v)
	}
	return nil
}

// nonneg validates one non-negative finite knob.
func nonneg(name string, v float64) error {
	if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
		return fmt.Errorf("faults: config %s = %v must be finite and non-negative", name, v)
	}
	return nil
}

// Validate checks every knob's range and the outage list's canonical
// form (sorted by start, non-overlapping, non-empty windows).
func (c Config) Validate() error {
	if err := prob("loss_prob", c.LossProb); err != nil {
		return err
	}
	if err := prob("dup_prob", c.DupProb); err != nil {
		return err
	}
	if err := prob("reorder_prob", c.ReorderProb); err != nil {
		return err
	}
	if err := nonneg("reorder_delay_ms", c.ReorderDelayMs); err != nil {
		return err
	}
	if err := nonneg("jitter_ms", c.JitterMs); err != nil {
		return err
	}
	if c.GE != nil {
		for _, p := range []struct {
			name string
			v    float64
		}{
			{"ge.p_good_bad", c.GE.PGoodBad}, {"ge.p_bad_good", c.GE.PBadGood},
			{"ge.loss_good", c.GE.LossGood}, {"ge.loss_bad", c.GE.LossBad},
		} {
			if err := prob(p.name, p.v); err != nil {
				return err
			}
		}
	}
	prevEnd := math.Inf(-1)
	for i, w := range c.Outages {
		if err := nonneg(fmt.Sprintf("outages[%d].start_s", i), w.StartS); err != nil {
			return err
		}
		if math.IsNaN(w.EndS) || math.IsInf(w.EndS, 0) || w.EndS <= w.StartS {
			return fmt.Errorf("faults: config outages[%d] = [%v, %v) is empty or invalid", i, w.StartS, w.EndS)
		}
		if w.StartS < prevEnd {
			return fmt.Errorf("faults: config outages[%d] starts at %v before previous end %v (must be sorted, non-overlapping)", i, w.StartS, prevEnd)
		}
		prevEnd = w.EndS
	}
	if err := nonneg("flap_period_s", c.FlapPeriodS); err != nil {
		return err
	}
	if err := nonneg("flap_down_s", c.FlapDownS); err != nil {
		return err
	}
	if c.OscAmp != 0 || c.OscPeriodS != 0 {
		if math.IsNaN(c.OscAmp) || c.OscAmp < 0 || c.OscAmp >= 1 {
			return fmt.Errorf("faults: config osc_amp = %v out of [0, 1)", c.OscAmp)
		}
		if err := nonneg("osc_period_s", c.OscPeriodS); err != nil {
			return err
		}
		// RateFunc divides by the period as a time.Duration.
		if c.OscPeriodS != 0 && seconds(c.OscPeriodS) <= 0 {
			return fmt.Errorf("faults: config osc_period_s = %v is not a positive time.Duration", c.OscPeriodS)
		}
		if math.IsNaN(c.OscPhase) || c.OscPhase < 0 || c.OscPhase >= 1 {
			return fmt.Errorf("faults: config osc_phase = %v out of [0, 1)", c.OscPhase)
		}
	}
	return nil
}

// Canonical returns the config with its outage list sorted by start
// and overlapping or touching windows merged, dropping empty ones. It
// does not clamp out-of-range knobs — those are errors, not noise —
// so Validate on the result reports exactly what Validate on the
// input would, minus outage-ordering complaints. Canonical is
// idempotent, and a canonical config JSON-round-trips to identical
// bytes.
func (c Config) Canonical() Config {
	if len(c.Outages) == 0 {
		return c
	}
	ws := make([]WindowSpec, 0, len(c.Outages))
	for _, w := range c.Outages {
		if w.EndS > w.StartS {
			ws = append(ws, w)
		}
	}
	sort.Slice(ws, func(i, j int) bool {
		if ws[i].StartS != ws[j].StartS {
			return ws[i].StartS < ws[j].StartS
		}
		return ws[i].EndS < ws[j].EndS
	})
	merged := ws[:0]
	for _, w := range ws {
		if n := len(merged); n > 0 && w.StartS <= merged[n-1].EndS {
			if w.EndS > merged[n-1].EndS {
				merged[n-1].EndS = w.EndS
			}
			continue
		}
		merged = append(merged, w)
	}
	if len(merged) == 0 {
		merged = nil
	}
	c.Outages = merged
	return c
}

// RateFunc returns the oscillation's rate function over the given base
// rate for sim.DriveRate (which floors it at 1 kbit/s), or nil when
// oscillation is disabled. The phase offset makes
// the *timing* of capacity dips part of the searchable genome, not
// just their magnitude.
func (c Config) RateFunc(base float64) func(time.Duration) float64 {
	if !c.HasOscillation() {
		return nil
	}
	period := seconds(c.OscPeriodS)
	amp, phase := c.OscAmp, c.OscPhase
	return func(t time.Duration) float64 {
		x := 2 * math.Pi * (float64(t)/float64(period) + phase)
		return base * (1 + amp*math.Sin(x))
	}
}
