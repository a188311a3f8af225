package faults

import (
	"time"

	"repro/internal/obs"
	"repro/internal/sim"
)

// window is a half-open interval [Start, End) of virtual time.
type window struct {
	Start, End time.Duration
}

// Outage models link flaps: while the link is "down", Dequeue releases
// nothing (reporting when the outage ends so the link retries), and
// packets either accumulate in the inner queue — an L2 outage with
// buffering — or, with DropDuring set, are discarded at enqueue (a
// true blackhole). Outages come from an explicit window list, a
// periodic schedule, or both; the whole schedule is deterministic.
type Outage struct {
	inner   sim.Qdisc
	windows []window // must be sorted and non-overlapping
	period  time.Duration
	down    time.Duration

	// DropDuring switches from buffering to blackholing.
	DropDuring bool
	// Suppressed counts packets blackholed while down.
	Suppressed int64
	// Trace, if non-nil, receives EvFault events when packet activity
	// observes a down↔up transition (Note "outage_start"/"outage_end").
	// Transitions are only visible while traffic flows; a flap with no
	// packets around it goes unrecorded.
	Trace obs.Tracer

	wasDown bool
}

// observe traces down↔up transitions as packet activity reveals them.
func (o *Outage) observe(now time.Duration, down bool) {
	if down == o.wasDown {
		return
	}
	o.wasDown = down
	if o.Trace != nil {
		note := "outage_end"
		if down {
			note = "outage_start"
		}
		o.Trace.Emit(obs.Event{At: now, Type: obs.EvFault, Src: "outage", Note: note})
	}
}

// NewPeriodicOutage wraps inner with a repeating flap: each period the
// link is up for period-down, then down for down. down must be
// positive and less than period, or the schedule is disabled.
func NewPeriodicOutage(inner sim.Qdisc, period, down time.Duration) *Outage {
	if down <= 0 || down >= period {
		return &Outage{inner: inner}
	}
	return &Outage{inner: inner, period: period, down: down}
}

// DownAt reports whether the link is down at time now and, if so, when
// the current outage ends.
func (o *Outage) DownAt(now time.Duration) (bool, time.Duration) {
	for _, w := range o.windows {
		if now < w.Start {
			break
		}
		if now < w.End {
			return true, w.End
		}
	}
	if o.period > 0 {
		phase := now % o.period
		if up := o.period - o.down; phase >= up {
			return true, now - phase + o.period
		}
	}
	return false, 0
}

// Enqueue implements sim.Qdisc.
func (o *Outage) Enqueue(p *sim.Packet, now time.Duration) bool {
	if o.DropDuring {
		down, _ := o.DownAt(now)
		o.observe(now, down)
		if down {
			o.Suppressed++
			return false
		}
	}
	return o.inner.Enqueue(p, now)
}

// Dequeue implements sim.Qdisc.
func (o *Outage) Dequeue(now time.Duration) (*sim.Packet, time.Duration) {
	down, until := o.DownAt(now)
	o.observe(now, down)
	if down {
		return nil, until
	}
	return o.inner.Dequeue(now)
}

// Len implements sim.Qdisc.
func (o *Outage) Len() int { return o.inner.Len() }

// Bytes implements sim.Qdisc.
func (o *Outage) Bytes() int { return o.inner.Bytes() }
