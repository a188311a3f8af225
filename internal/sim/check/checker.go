package check

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/sim"
)

// maxViolations bounds how many violations a Checker records before it
// stops collecting; a broken engine would otherwise bury the first
// (most useful) error under millions of repeats.
const maxViolations = 16

// Checker validates engine-level invariants while a simulation runs.
// It implements sim.Hook; install it with Attach and interrogate it
// with Err after the run. All checks are synchronous and allocation
// is confined to the checker itself, so a checked run exercises the
// exact same engine code paths as a production run.
//
// Invariants enforced:
//
//   - Monotone clock: events fire at non-decreasing virtual times.
//   - FIFO tie-break: events firing at the same instant fire in
//     strictly increasing schedule (seq) order.
//   - Schedule clamping: no event is scheduled into the past.
//   - Pool hygiene: a pooled packet is never handed out while still
//     live (double alloc), never freed while not live (double free),
//     and never freed under a generation different from the one it was
//     allocated with (use-after-free of a recycled packet).
//   - Link conservation: every packet a link accepted is accounted for
//     as sent, still queued, or in serialization (checked by
//     VerifyLinks, at most one packet in service).
//   - Queue occupancy bounds: a watched link's queue never reports
//     negative occupancy nor exceeds its configured byte bound.
type Checker struct {
	errs []error

	// Event-order state.
	fired        bool
	lastAt       time.Duration
	lastSeq      int64
	lastSchedule time.Duration

	// Pool state. live is indexed by Packet.PoolIndex: the generation
	// a live packet was allocated under plus one, or 0 when it is not
	// live. Only the owner engine's hook sees a packet, so the index
	// names one packet.
	live     []uint32
	allocs   int64
	frees    int64
	maxLive  int
	liveNow  int
	links    []linkWatch
	checkOcc bool
}

type linkWatch struct {
	l *sim.Link
	// q is the discipline whose occupancy is bounded: the link's own
	// Q, or the queue inside a fault chain that wraps it.
	q sim.Qdisc
	// capBytes bounds q.Bytes() when positive.
	capBytes int
}

// Attach installs a fresh Checker as the engine's hook and returns it.
// The previous hook, if any, is replaced.
func Attach(eng *sim.Engine) *Checker {
	c := &Checker{}
	eng.SetHook(c)
	return c
}

// WatchLink adds a link to the conservation and occupancy checks;
// capBytes, when positive, bounds the byte occupancy of q, the
// discipline the link's queue is or wraps. A fault chain's delay and
// duplication stages hold packets outside the discipline, so its
// bound would not be the link queue's.
// Conservation assumes the qdisc neither consumes packets internally
// (CoDel's dequeue drops, DRR's head evictions) nor injects packets of
// its own, so links behind such a qdisc, or wrapped in a duplicating
// fault injector, cannot be watched.
func (c *Checker) WatchLink(l *sim.Link, q sim.Qdisc, capBytes int) {
	c.links = append(c.links, linkWatch{l: l, q: q, capBytes: capBytes})
	c.checkOcc = true
}

func (c *Checker) violate(format string, args ...interface{}) {
	if len(c.errs) >= maxViolations {
		return
	}
	c.errs = append(c.errs, fmt.Errorf(format, args...))
}

// OnSchedule implements sim.Hook.
func (c *Checker) OnSchedule(at time.Duration, seq int64) {
	if at < c.lastAt {
		c.violate("event %d scheduled at %v, before the clock (%v): engine failed to clamp", seq, at, c.lastAt)
	}
	c.lastSchedule = at
}

// OnFire implements sim.Hook.
func (c *Checker) OnFire(at time.Duration, seq int64) {
	if c.fired {
		if at < c.lastAt {
			c.violate("clock ran backwards: event %d fired at %v after an event at %v", seq, at, c.lastAt)
		}
		if at == c.lastAt && seq <= c.lastSeq {
			c.violate("FIFO tie-break violated at %v: event %d fired after event %d", at, seq, c.lastSeq)
		}
	}
	c.fired = true
	c.lastAt = at
	c.lastSeq = seq
	if c.checkOcc {
		for _, w := range c.links {
			if n := w.q.Len(); n < 0 {
				c.violate("link %s: negative queue length %d at %v", w.l.Name, n, at)
			}
			b := w.q.Bytes()
			if b < 0 {
				c.violate("link %s: negative queue bytes %d at %v", w.l.Name, b, at)
			}
			if w.capBytes > 0 && b > w.capBytes {
				c.violate("link %s: queue occupancy %dB exceeds bound %dB at %v", w.l.Name, b, w.capBytes, at)
			}
		}
	}
}

// OnAlloc implements sim.Hook.
func (c *Checker) OnAlloc(p *sim.Packet) {
	c.allocs++
	i := p.PoolIndex()
	for i >= len(c.live) {
		c.live = append(c.live, 0)
	}
	if c.live[i] != 0 {
		c.violate("packet %p handed out twice without an intervening Release (gen %d)", p, p.Generation())
	}
	c.live[i] = p.Generation() + 1
	c.liveNow++
	if c.liveNow > c.maxLive {
		c.maxLive = c.liveNow
	}
}

// OnFree implements sim.Hook.
func (c *Checker) OnFree(p *sim.Packet) {
	c.frees++
	i := p.PoolIndex()
	if i >= len(c.live) || c.live[i] == 0 {
		c.violate("packet %p released while not live (gen %d): double free or foreign packet", p, p.Generation())
		return
	}
	if gen := c.live[i] - 1; gen != p.Generation() {
		c.violate("packet %p released under gen %d but allocated under gen %d: use-after-free of a recycled packet",
			p, p.Generation(), gen)
	}
	c.live[i] = 0
	c.liveNow--
}

// LivePackets returns the number of pooled packets currently checked
// out, and the high-water mark over the run.
func (c *Checker) LivePackets() (now, max int) { return c.liveNow, c.maxLive }

// VerifyLinks runs the end-of-run conservation check on every watched
// link: accepted == sent + queued, with at most one
// packet unaccounted (the one in serialization when the clock stopped).
func (c *Checker) VerifyLinks() {
	for _, w := range c.links {
		st := w.l.Stats()
		slack := st.EnqueuedPackets - st.SentPackets - int64(w.l.Q.Len())
		if slack < 0 || slack > 1 {
			c.violate("link %s: conservation violated: %d enqueued != %d sent + %d queued (slack %d)",
				w.l.Name, st.EnqueuedPackets, st.SentPackets, w.l.Q.Len(), slack)
		}
	}
}

// Err returns all recorded violations joined, or nil when every
// invariant held.
func (c *Checker) Err() error {
	return errors.Join(c.errs...)
}
