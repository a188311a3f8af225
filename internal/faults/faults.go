// Package faults is the emulator's composable, deterministic
// fault-injection layer: sim.Qdisc wrappers that impose pathological
// network conditions — i.i.d. and Gilbert–Elliott burst loss, packet
// duplication, reordering, delay jitter, and link outages ("flaps") —
// on whatever queue they wrap, plus one declarative description of an
// impaired bottleneck, Config, which composes the injectors, carries a
// bandwidth-oscillation rate function for sim.DriveRate, and is what
// the named registry ("wifi-bursty", "flaky-cellular", ...) holds.
//
// Every injector draws randomness exclusively from its own seeded
// generator, so a scenario replays byte-for-byte under a fixed seed no
// matter what else shares the engine. Config.Build takes the
// generators from the engine (sim.Engine.Rand), so a reused engine
// re-seeds them instead of allocating new ones. All wrappers implement sim.Qdisc
// and stack in any order; Config.Build composes them in the canonical
// order (loss processes outermost, delay stages nearest the inner
// queue).
//
// Wrappers honour the sim.Qdisc contract: they never return a nil
// packet with a zero ready time while holding data, so a link driving
// a wrapped queue cannot stall.
package faults

import (
	"math/rand"
	"time"

	"repro/internal/obs"
	"repro/internal/sim"
)

// Loss drops a seeded pseudo-random fraction of packets at enqueue,
// modelling non-congestive (corruption) loss, distinct from the drops
// the inner queue performs when full.
type Loss struct {
	inner sim.Qdisc
	rng   *rand.Rand
	p     float64
	// Dropped counts packets the injector discarded.
	Dropped int64
	// Trace, if non-nil, receives one EvFault event per injected drop.
	Trace obs.Tracer
}

// NewLoss wraps inner with i.i.d. loss probability p in [0, 1], drawn
// from rng.
func NewLoss(inner sim.Qdisc, p float64, rng *rand.Rand) *Loss {
	return &Loss{inner: inner, rng: rng, p: p}
}

// Enqueue implements sim.Qdisc.
func (l *Loss) Enqueue(p *sim.Packet, now time.Duration) bool {
	if l.rng.Float64() < l.p {
		l.Dropped++
		if l.Trace != nil {
			l.Trace.Emit(obs.Event{At: now, Type: obs.EvFault, Src: "loss",
				Flow: int32(p.FlowID), Seq: p.Seq, V1: float64(p.Size), Note: "iid_loss"})
		}
		return false
	}
	return l.inner.Enqueue(p, now)
}

// Dequeue implements sim.Qdisc.
func (l *Loss) Dequeue(now time.Duration) (*sim.Packet, time.Duration) {
	return l.inner.Dequeue(now)
}

// Len implements sim.Qdisc.
func (l *Loss) Len() int { return l.inner.Len() }

// Bytes implements sim.Qdisc.
func (l *Loss) Bytes() int { return l.inner.Bytes() }

// GilbertElliott drops packets according to a seeded Gilbert–Elliott
// process, producing the bursty loss patterns of wireless links.
type GilbertElliott struct {
	inner sim.Qdisc
	rng   *rand.Rand
	cfg   GESpec
	bad   bool
	// Dropped counts packets the injector discarded.
	Dropped int64
	// Bursts counts Good→Bad transitions.
	Bursts int64
	// Trace, if non-nil, receives EvFault events at burst boundaries
	// (Note "burst_start"/"burst_end"; V1 = burst count so far).
	Trace obs.Tracer
}

// NewGilbertElliott wraps inner with the burst-loss process, drawn
// from rng.
func NewGilbertElliott(inner sim.Qdisc, cfg GESpec, rng *rand.Rand) *GilbertElliott {
	return &GilbertElliott{inner: inner, rng: rng, cfg: cfg.norm()}
}

// Enqueue implements sim.Qdisc, advancing the channel state one step
// per packet.
func (g *GilbertElliott) Enqueue(p *sim.Packet, now time.Duration) bool {
	if g.bad {
		if g.rng.Float64() < g.cfg.PBadGood {
			g.bad = false
			if g.Trace != nil {
				g.Trace.Emit(obs.Event{At: now, Type: obs.EvFault, Src: "ge",
					V1: float64(g.Bursts), Note: "burst_end"})
			}
		}
	} else if g.rng.Float64() < g.cfg.PGoodBad {
		g.bad = true
		g.Bursts++
		if g.Trace != nil {
			g.Trace.Emit(obs.Event{At: now, Type: obs.EvFault, Src: "ge",
				V1: float64(g.Bursts), Note: "burst_start"})
		}
	}
	lossP := g.cfg.LossGood
	if g.bad {
		lossP = g.cfg.LossBad
	}
	if g.rng.Float64() < lossP {
		g.Dropped++
		return false
	}
	return g.inner.Enqueue(p, now)
}

// Dequeue implements sim.Qdisc.
func (g *GilbertElliott) Dequeue(now time.Duration) (*sim.Packet, time.Duration) {
	return g.inner.Dequeue(now)
}

// Len implements sim.Qdisc.
func (g *GilbertElliott) Len() int { return g.inner.Len() }

// Bytes implements sim.Qdisc.
func (g *GilbertElliott) Bytes() int { return g.inner.Bytes() }

// Duplicator enqueues a copy of a seeded pseudo-random fraction of
// packets, modelling link-layer retransmission artifacts. The copy is
// an independent packet (its own hop state), so both traverse the rest
// of the path; receivers see the duplicate sequence number.
type Duplicator struct {
	inner sim.Qdisc
	rng   *rand.Rand
	p     float64
	// Duplicated counts extra copies successfully enqueued.
	Duplicated int64
}

// NewDuplicator wraps inner with duplication probability p, drawn from
// rng.
func NewDuplicator(inner sim.Qdisc, p float64, rng *rand.Rand) *Duplicator {
	return &Duplicator{inner: inner, rng: rng, p: p}
}

// Enqueue implements sim.Qdisc.
func (d *Duplicator) Enqueue(p *sim.Packet, now time.Duration) bool {
	ok := d.inner.Enqueue(p, now)
	if ok && d.rng.Float64() < d.p {
		// Clone detaches the copy from the packet pool: only the
		// original may ever be recycled through Release.
		if d.inner.Enqueue(p.Clone(), now) {
			d.Duplicated++
		}
	}
	return ok
}

// Dequeue implements sim.Qdisc.
func (d *Duplicator) Dequeue(now time.Duration) (*sim.Packet, time.Duration) {
	return d.inner.Dequeue(now)
}

// Len implements sim.Qdisc.
func (d *Duplicator) Len() int { return d.inner.Len() }

// Bytes implements sim.Qdisc.
func (d *Duplicator) Bytes() int { return d.inner.Bytes() }
