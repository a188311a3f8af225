package sim

import "time"

// schedulePacket is a delay line's push as one engine event per
// packet: after delay (a negative one is zero), p advances to its next
// hop or its Dest. The tests use it as the reference delay lines must
// be indistinguishable from.
func schedulePacket(e *Engine, delay time.Duration, p *Packet) Timer {
	return e.Schedule(delay, func() { advance(p) })
}

// Pooled reports whether the packet belongs to an engine's free list.
func (p *Packet) Pooled() bool { return p.owner != nil }
