package sim

import (
	"fmt"
	"time"

	"repro/internal/obs"
)

// Qdisc is a queue discipline attached to a link's egress. Enqueue may
// drop (returning false). Dequeue returns the next packet to serialize;
// a non-work-conserving qdisc (e.g. a token-bucket shaper) may hold
// packets back, returning nil together with the earliest time a packet
// could become available. When the queue is empty Dequeue returns
// (nil, 0).
//
// A qdisc that discards an already-accepted packet internally (AQM
// drops at dequeue, eviction from another class's queue) is that
// packet's terminal consumer and must Release it; packets refused at
// Enqueue are released by the link.
type Qdisc interface {
	Enqueue(p *Packet, now time.Duration) bool
	Dequeue(now time.Duration) (*Packet, time.Duration)
	// Len returns the number of queued packets.
	Len() int
	// Bytes returns the number of queued bytes.
	Bytes() int
}

// LinkStats aggregates a link's lifetime counters.
type LinkStats struct {
	EnqueuedPackets int64
	DroppedPackets  int64
	SentPackets     int64
	SentBytes       int64
	// BusyTime is the total time the transmitter spent serializing
	// packets, for utilization computation.
	BusyTime time.Duration
}

// Link is a unidirectional fixed-rate link with propagation delay and a
// pluggable queue discipline. Create links with NewLink.
type Link struct {
	Name string
	// Rate is the serialization rate in bits per second.
	Rate float64
	// Q is the egress queue discipline.
	Q Qdisc

	// Trace, if non-nil, receives enqueue/dequeue/drop events stamped
	// with the engine's virtual time. Nil (the default) costs one
	// branch per event and allocates nothing.
	Trace obs.Tracer

	eng      *Engine
	prop     *DelayLine // propagation, at the delay the link was built with
	busy     bool
	retry    Timer
	stats    LinkStats
	lastBusy time.Duration

	// The packet currently serializing and its transmission time. A
	// link transmits one packet at a time, so holding the in-service
	// packet here (with kickFn/finishFn bound once at construction)
	// keeps the serialize->propagate cycle free of closure allocations.
	txPkt *Packet
	txDur time.Duration

	kickFn   func()
	finishFn func()
}

// NewLink returns a link bound to the engine. rate is in bits/s and
// must be positive; q must be non-nil. The propagation delay is fixed
// for the link's life (a negative one is zero), so packets leave it in
// the order they finished serializing.
func NewLink(eng *Engine, name string, rate float64, delay time.Duration, q Qdisc) *Link {
	if rate <= 0 {
		panic(fmt.Sprintf("sim: link %q: non-positive rate %v", name, rate))
	}
	if q == nil {
		panic(fmt.Sprintf("sim: link %q: nil qdisc", name))
	}
	l := &Link{Name: name, Rate: rate, Q: q, eng: eng, prop: eng.DelayLine(delay)}
	l.kickFn = l.kick
	l.finishFn = l.finish
	return l
}

// Delay returns the one-way propagation delay.
func (l *Link) Delay() time.Duration { return l.prop.delay }

// Stats returns a copy of the link's counters.
func (l *Link) Stats() LinkStats { return l.stats }

// Utilization returns the fraction of [0, now] the transmitter was
// busy.
func (l *Link) Utilization(now time.Duration) float64 {
	if now <= 0 {
		return 0
	}
	return float64(l.stats.BusyTime) / float64(now)
}

// TransmissionTime returns how long a packet of size bytes takes to
// serialize at the link rate.
func (l *Link) TransmissionTime(size int) time.Duration {
	sec := float64(size*8) / l.Rate
	return time.Duration(sec * float64(time.Second))
}

// Send enqueues the packet and starts the transmitter if idle.
func (l *Link) Send(p *Packet) {
	now := l.eng.Now()
	if !l.Q.Enqueue(p, now) {
		l.stats.DroppedPackets++
		if l.Trace != nil {
			l.Trace.Emit(obs.Event{At: now, Type: obs.EvDrop, Src: l.Name,
				Flow: int32(p.FlowID), Seq: p.Seq, V1: float64(p.Size), Note: "queue_full"})
		}
		p.Release()
		return
	}
	l.stats.EnqueuedPackets++
	if l.Trace != nil {
		l.Trace.Emit(obs.Event{At: now, Type: obs.EvEnqueue, Src: l.Name,
			Flow: int32(p.FlowID), Seq: p.Seq, V1: float64(p.Size), V2: float64(l.Q.Bytes())})
	}
	if !l.busy {
		l.kick()
	}
}

// kick attempts to dequeue and serialize the next packet. It manages
// the retry timer for non-work-conserving qdiscs.
func (l *Link) kick() {
	now := l.eng.Now()
	p, ready := l.Q.Dequeue(now)
	if p == nil && ready > now {
		// Shaped: try again when tokens accrue.
		if !l.retry.Postpone(ready) {
			l.retry.Cancel()
			l.retry = l.eng.ScheduleAt(ready, l.kickFn)
		}
		return
	}
	l.retry.Cancel()
	if p == nil {
		return
	}
	l.busy = true
	if l.Trace != nil {
		l.Trace.Emit(obs.Event{At: now, Type: obs.EvDequeue, Src: l.Name,
			Flow: int32(p.FlowID), Seq: p.Seq, V1: float64(p.Size), V2: float64(l.Q.Bytes())})
	}
	tx := l.TransmissionTime(p.Size)
	l.txPkt, l.txDur = p, tx
	l.eng.Schedule(tx, l.finishFn)
}

// finish completes the in-service packet's serialization, hands it to
// propagation, and keeps the transmitter going.
func (l *Link) finish() {
	p, tx := l.txPkt, l.txDur
	l.txPkt = nil
	l.busy = false
	l.stats.SentPackets++
	l.stats.SentBytes += int64(p.Size)
	l.stats.BusyTime += tx
	// Propagate, then continue along the path.
	l.prop.Push(p)
	l.kick()
}

// RegisterMetrics exposes the link's lifetime counters and queue state
// as live gauges labeled link=<name>.
func (l *Link) RegisterMetrics(reg *obs.Registry) {
	if reg == nil {
		return
	}
	label := "link=" + l.Name
	reg.RegisterFunc("sim.link.sent_packets", label, func() float64 { return float64(l.stats.SentPackets) })
	reg.RegisterFunc("sim.link.sent_bytes", label, func() float64 { return float64(l.stats.SentBytes) })
	reg.RegisterFunc("sim.link.enqueued_packets", label, func() float64 { return float64(l.stats.EnqueuedPackets) })
	reg.RegisterFunc("sim.link.dropped_packets", label, func() float64 { return float64(l.stats.DroppedPackets) })
	reg.RegisterFunc("sim.link.queue_bytes", label, func() float64 { return float64(l.Q.Bytes()) })
	reg.RegisterFunc("sim.link.queue_packets", label, func() float64 { return float64(l.Q.Len()) })
	reg.RegisterFunc("sim.link.rate_bps", label, func() float64 { return l.Rate })
	reg.RegisterFunc("sim.link.busy_s", label, func() float64 { return l.stats.BusyTime.Seconds() })
}
