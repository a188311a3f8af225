package faults

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// Config is the JSON-serializable, content-hashable form of a fault
// profile: the same impairments a named Profile composes, expressed in
// float seconds/milliseconds so a scenario spec (or a hunt genome) can
// carry an arbitrary inline profile instead of naming a registered
// one. It also adds the capacity-side impairment the named profiles
// lack: a deterministic sinusoidal rate oscillation (amplitude,
// period, phase), applied by experiments that support it via RateFunc.
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
	// OscAmp/OscPeriodS/OscPhase describe a sinusoidal link-rate
	// oscillation: rate(t) = base * (1 + amp*sin(2π(t/period + phase))).
	// Amp is a fraction of the base rate in [0, 1); phase a fraction of
	// the period in [0, 1). Zero amp or period disables oscillation.
	OscAmp     float64 `json:"osc_amp,omitempty"`
	OscPeriodS float64 `json:"osc_period_s,omitempty"`
	OscPhase   float64 `json:"osc_phase,omitempty"`
}

// GESpec is GEConfig with JSON tags (GEConfig predates the declarative
// layer and stays tagless for the named-profile registry).
type GESpec struct {
	PGoodBad float64 `json:"p_good_bad"`
	PBadGood float64 `json:"p_bad_good"`
	LossGood float64 `json:"loss_good,omitempty"`
	LossBad  float64 `json:"loss_bad"`
}

// WindowSpec is Window in float seconds.
type WindowSpec struct {
	StartS float64 `json:"start_s"`
	EndS   float64 `json:"end_s"`
}

// IsZero reports whether the config enables no impairment at all.
func (c Config) IsZero() bool {
	return c.LossProb == 0 && c.GE == nil && c.DupProb == 0 &&
		c.ReorderProb == 0 && c.JitterMs == 0 && len(c.Outages) == 0 &&
		!c.HasOscillation()
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
	if c.OscAmp != 0 || c.OscPeriodS != 0 {
		if math.IsNaN(c.OscAmp) || c.OscAmp < 0 || c.OscAmp >= 1 {
			return fmt.Errorf("faults: config osc_amp = %v out of [0, 1)", c.OscAmp)
		}
		if err := nonneg("osc_period_s", c.OscPeriodS); err != nil {
			return err
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

// Profile converts the queue-side impairments into a buildable
// Profile. The rate oscillation is capacity-side and does not fit the
// qdisc chain; experiments apply it separately via RateFunc.
func (c Config) Profile() Profile {
	p := Profile{
		Name:            "inline",
		LossProb:        c.LossProb,
		DupProb:         c.DupProb,
		ReorderProb:     c.ReorderProb,
		ReorderDelay:    time.Duration(c.ReorderDelayMs * float64(time.Millisecond)),
		Jitter:          time.Duration(c.JitterMs * float64(time.Millisecond)),
		DropDuringFlaps: c.DropDuringOutages,
	}
	if c.GE != nil {
		p.GE = &GEConfig{
			PGoodBad: c.GE.PGoodBad, PBadGood: c.GE.PBadGood,
			LossGood: c.GE.LossGood, LossBad: c.GE.LossBad,
		}
	}
	for _, w := range c.Outages {
		p.Flaps = append(p.Flaps, Window{
			Start: time.Duration(w.StartS * float64(time.Second)),
			End:   time.Duration(w.EndS * float64(time.Second)),
		})
	}
	return p
}

// RateFunc returns the oscillation's rate function over the given base
// rate, or nil when oscillation is disabled. The phase offset makes
// the *timing* of capacity dips part of the searchable genome, not
// just their magnitude.
func (c Config) RateFunc(base float64) func(time.Duration) float64 {
	if !c.HasOscillation() {
		return nil
	}
	period := time.Duration(c.OscPeriodS * float64(time.Second))
	amp, phase := c.OscAmp, c.OscPhase
	return func(t time.Duration) float64 {
		x := 2 * math.Pi * (float64(t)/float64(period) + phase)
		return floorRate(base * (1 + amp*math.Sin(x)))
	}
}

// floorRate keeps an oscillated rate at or above 1 kbit/s, matching
// sim.DriveRate's own guard.
func floorRate(r float64) float64 {
	if r < 1e3 {
		return 1e3
	}
	return r
}
