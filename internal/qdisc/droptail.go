// Package qdisc implements the queue disciplines the paper names as
// in-network bandwidth management mechanisms: droptail FIFO, token-
// bucket shaping and policing (Flach et al.'s distinction: policers
// drop excess, shapers queue it), deficit-round-robin fair queueing
// (Demers et al. / Shreedhar-Varghese), stochastic fair queueing,
// CoDel inside FQ-CoDel, and a two-level per-user isolation discipline
// in the spirit of HTB: users receive fair shares, flows within a
// user share a FIFO.
//
// All disciplines implement sim.Qdisc and are deterministic.
package qdisc

import (
	"time"

	"repro/internal/sim"
)

// DropTail is a FIFO queue with a byte capacity limit; packets that
// would overflow are dropped at the tail. It drains by head index and
// recycles its backing array when it empties, so a steady
// enqueue/dequeue cycle stays allocation-free instead of creeping the
// slice base through memory — with thousands of per-user instances
// (manyflow) that creep was a measurable allocation source. It is the
// package's one FIFO: CoDel, the token buckets, per-user isolation and
// DRR's classes all queue in one.
type DropTail struct {
	limit int // bytes
	q     []*sim.Packet
	head  int
	bytes int
	// Dropped counts packets refused at enqueue.
	Dropped int64
}

// NewDropTail returns a droptail FIFO holding at most limitBytes bytes.
// A non-positive limit means a very large (effectively unbounded)
// queue.
func NewDropTail(limitBytes int) *DropTail {
	if limitBytes <= 0 {
		limitBytes = unbounded
	}
	return &DropTail{limit: limitBytes}
}

// unbounded is the byte limit of a queue that never drops.
const unbounded = 1 << 40

// NewDropTailBDP returns a droptail FIFO sized to mult
// bandwidth-delay products of a link with the given rate (bits/s) and
// RTT, the conventional buffer sizing rule.
func NewDropTailBDP(rate float64, rtt time.Duration, mult float64) *DropTail {
	bdp := rate / 8 * rtt.Seconds() * mult
	if bdp < 2*sim.MSS {
		bdp = 2 * sim.MSS
	}
	return NewDropTail(int(bdp))
}

// Enqueue implements sim.Qdisc.
func (d *DropTail) Enqueue(p *sim.Packet, _ time.Duration) bool {
	if d.bytes+p.Size > d.limit {
		d.Dropped++
		return false
	}
	d.q = append(d.q, p)
	d.bytes += p.Size
	return true
}

// Dequeue implements sim.Qdisc.
func (d *DropTail) Dequeue(_ time.Duration) (*sim.Packet, time.Duration) {
	if d.head == len(d.q) {
		return nil, 0
	}
	p := d.q[d.head]
	d.q[d.head] = nil
	d.head++
	if d.head == len(d.q) {
		d.q = d.q[:0]
		d.head = 0
	} else if d.head >= 64 && d.head*2 >= len(d.q) {
		// A queue that never fully drains (steady backlog) would
		// otherwise grow its array by one slot per packet ever
		// enqueued as head chases the tail. Sliding the live window
		// back to the base is amortized O(1) — at least half the
		// array is dead by the time it runs — and bounds capacity
		// near the maximum concurrent occupancy.
		n := copy(d.q, d.q[d.head:])
		clear(d.q[n:])
		d.q = d.q[:n]
		d.head = 0
	}
	d.bytes -= p.Size
	return p, 0
}

// peek returns the head packet without removing it; nil when empty.
func (d *DropTail) peek() *sim.Packet {
	if d.head == len(d.q) {
		return nil
	}
	return d.q[d.head]
}

// Len implements sim.Qdisc.
func (d *DropTail) Len() int { return len(d.q) - d.head }

// Bytes implements sim.Qdisc.
func (d *DropTail) Bytes() int { return d.bytes }
