package qdisc

import (
	"math"
	"time"

	"repro/internal/obs"
	"repro/internal/sim"
)

// CoDel implements the Controlled Delay AQM (Nichols & Jacobson) — the
// modern answer to bufferbloat on access links, and (as fq_codel) the
// queue discipline most commonly providing the flow isolation §2.3
// observes is "cheap and easy to implement". Packets are dropped at
// dequeue when the sojourn time has exceeded Target for at least
// Interval, with the drop rate increasing by the inverse-sqrt control
// law.
type CoDel struct {
	// Target is the acceptable standing queue delay (default 5ms).
	Target time.Duration
	// Interval is the sliding measurement window (default 100ms).
	Interval time.Duration

	fifo *DropTail
	enq  map[*sim.Packet]time.Duration // enqueue timestamps
	// CoDel state.
	dropping   bool
	firstAbove time.Duration
	dropNext   time.Duration
	count      int
	lastCount  int

	// Dropped counts packets dropped by the AQM (not tail drops).
	Dropped int64
	// Trace, if non-nil, receives one EvMark event per AQM drop
	// (V1 = packet size, V2 = sojourn time in seconds). Tail drops are
	// traced by the owning link as EvDrop instead.
	Trace obs.Tracer
}

// NewCoDel returns a CoDel queue with the given byte limit and default
// target/interval.
func NewCoDel(limitBytes int) *CoDel {
	return &CoDel{
		Target:   5 * time.Millisecond,
		Interval: 100 * time.Millisecond,
		fifo:     NewDropTail(limitBytes),
		enq:      make(map[*sim.Packet]time.Duration),
	}
}

// Enqueue implements sim.Qdisc.
func (c *CoDel) Enqueue(p *sim.Packet, now time.Duration) bool {
	if !c.fifo.Enqueue(p, now) {
		return false
	}
	c.enq[p] = now
	return true
}

// sojourn pops the head packet and returns it with its queue delay.
func (c *CoDel) pop(now time.Duration) (*sim.Packet, time.Duration, bool) {
	p, _ := c.fifo.Dequeue(now)
	if p == nil {
		return nil, 0, false
	}
	at := c.enq[p]
	delete(c.enq, p)
	return p, now - at, true
}

// markDrop accounts one AQM drop, traces it, and recycles the packet:
// a dequeue-time drop is the packet's terminal consumption point (the
// owning link never sees it again).
func (c *CoDel) markDrop(p *sim.Packet, sojourn, now time.Duration) {
	c.Dropped++
	if c.Trace != nil {
		c.Trace.Emit(obs.Event{At: now, Type: obs.EvMark, Src: "codel",
			Flow: int32(p.FlowID), Seq: p.Seq, V1: float64(p.Size), V2: sojourn.Seconds(), Note: "aqm_drop"})
	}
	p.Release()
}

// okToDrop updates the first-above-target tracking for one head
// packet.
func (c *CoDel) okToDrop(sojourn, now time.Duration) bool {
	if sojourn < c.Target || c.fifo.Bytes() < 2*sim.MSS {
		c.firstAbove = 0
		return false
	}
	if c.firstAbove == 0 {
		c.firstAbove = now + c.Interval
		return false
	}
	return now >= c.firstAbove
}

// Dequeue implements sim.Qdisc with the CoDel drop law.
func (c *CoDel) Dequeue(now time.Duration) (*sim.Packet, time.Duration) {
	p, sojourn, ok := c.pop(now)
	if !ok {
		c.dropping = false
		return nil, 0
	}
	drop := c.okToDrop(sojourn, now)
	if c.dropping {
		switch {
		case !drop:
			c.dropping = false
		case now >= c.dropNext:
			for now >= c.dropNext && c.dropping {
				c.markDrop(p, sojourn, now)
				c.count++
				p, sojourn, ok = c.pop(now)
				if !ok {
					c.dropping = false
					return nil, 0
				}
				if !c.okToDrop(sojourn, now) {
					c.dropping = false
					break
				}
				c.dropNext = c.controlLaw(c.dropNext)
			}
		}
	} else if drop {
		// Enter dropping state: drop this packet.
		c.markDrop(p, sojourn, now)
		c.dropping = true
		// Resume closer to the previous rate if we were recently
		// dropping (the "count" memory).
		if c.count > 2 && c.count-c.lastCount > 1 {
			c.count = c.count - c.lastCount
		} else {
			c.count = 1
		}
		c.lastCount = c.count
		c.dropNext = c.controlLaw(now)
		p, _, ok = c.pop(now)
		if !ok {
			c.dropping = false
			return nil, 0
		}
	}
	return p, 0
}

func (c *CoDel) controlLaw(t time.Duration) time.Duration {
	return t + time.Duration(float64(c.Interval)/math.Sqrt(float64(c.count)))
}

// Len implements sim.Qdisc.
func (c *CoDel) Len() int { return c.fifo.Len() }

// Bytes implements sim.Qdisc.
func (c *CoDel) Bytes() int { return c.fifo.Bytes() }
