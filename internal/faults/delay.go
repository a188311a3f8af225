package faults

import (
	"math/rand"
	"time"

	"repro/internal/sim"
)

// Jitter adds seeded pseudo-random extra delay, uniform in [0, Max),
// to each packet leaving the inner queue. Release times are forced
// monotone, so jitter alone never reorders (compose with Reorderer for
// that); it models delay noise — scheduler wakeups, radio retries,
// bufferbloat ripple — that corrupts RTT-based signals.
type Jitter struct {
	inner sim.Qdisc
	rng   *rand.Rand
	max   time.Duration

	staged      *sim.Packet
	release     time.Duration
	lastRelease time.Duration
	// Delayed counts packets that passed through the jitter stage.
	Delayed int64
}

// NewJitter wraps inner with up to max extra per-packet delay, drawn
// from rng. A non-positive max yields a passthrough.
func NewJitter(inner sim.Qdisc, max time.Duration, rng *rand.Rand) *Jitter {
	return &Jitter{inner: inner, rng: rng, max: max}
}

// Enqueue implements sim.Qdisc.
func (j *Jitter) Enqueue(p *sim.Packet, now time.Duration) bool {
	return j.inner.Enqueue(p, now)
}

// Dequeue implements sim.Qdisc. The head packet is held until its
// jittered release time; while held, Dequeue reports the release time
// so the link can retry.
func (j *Jitter) Dequeue(now time.Duration) (*sim.Packet, time.Duration) {
	if j.staged == nil {
		p, ready := j.inner.Dequeue(now)
		if p == nil {
			return nil, ready
		}
		if j.max <= 0 {
			return p, 0
		}
		rel := now + time.Duration(j.rng.Int63n(int64(j.max)))
		if rel < j.lastRelease {
			rel = j.lastRelease
		}
		j.staged, j.release, j.lastRelease = p, rel, rel
		j.Delayed++
	}
	if now >= j.release {
		p := j.staged
		j.staged = nil
		return p, 0
	}
	return nil, j.release
}

// Len implements sim.Qdisc.
func (j *Jitter) Len() int {
	n := j.inner.Len()
	if j.staged != nil {
		n++
	}
	return n
}

// Bytes implements sim.Qdisc.
func (j *Jitter) Bytes() int {
	b := j.inner.Bytes()
	if j.staged != nil {
		b += j.staged.Size
	}
	return b
}

type heldPacket struct {
	p       *sim.Packet
	release time.Duration
}

// Reorderer holds back a seeded pseudo-random fraction of packets for
// a fixed extra delay while the rest pass straight through — netem-
// style reordering. Held packets re-emerge after Delay, behind packets
// enqueued after them.
type Reorderer struct {
	inner sim.Qdisc
	rng   *rand.Rand
	p     float64
	delay time.Duration
	held  []heldPacket // release times are monotone (fixed delay)
	bytes int
	// Reordered counts packets the injector held back.
	Reordered int64
}

// NewReorderer wraps inner, holding packets back with probability p,
// drawn from rng, for delay extra time. A non-positive delay defaults
// to 10ms.
func NewReorderer(inner sim.Qdisc, p float64, delay time.Duration, rng *rand.Rand) *Reorderer {
	if delay <= 0 {
		delay = 10 * time.Millisecond
	}
	return &Reorderer{inner: inner, rng: rng, p: p, delay: delay}
}

// Enqueue implements sim.Qdisc.
func (r *Reorderer) Enqueue(p *sim.Packet, now time.Duration) bool {
	if r.rng.Float64() < r.p {
		r.held = append(r.held, heldPacket{p: p, release: now + r.delay})
		r.bytes += p.Size
		r.Reordered++
		return true
	}
	return r.inner.Enqueue(p, now)
}

// Dequeue implements sim.Qdisc: due held packets take priority, then
// the inner queue; with only immature held packets, their release time
// is reported so the link retries.
func (r *Reorderer) Dequeue(now time.Duration) (*sim.Packet, time.Duration) {
	if len(r.held) > 0 && r.held[0].release <= now {
		p := r.held[0].p
		r.held = r.held[1:]
		r.bytes -= p.Size
		return p, 0
	}
	p, ready := r.inner.Dequeue(now)
	if p != nil {
		return p, 0
	}
	if len(r.held) > 0 {
		if ready == 0 || r.held[0].release < ready {
			ready = r.held[0].release
		}
	}
	return nil, ready
}

// Len implements sim.Qdisc.
func (r *Reorderer) Len() int { return r.inner.Len() + len(r.held) }

// Bytes implements sim.Qdisc.
func (r *Reorderer) Bytes() int { return r.inner.Bytes() + r.bytes }
