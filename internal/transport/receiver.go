package transport

import (
	"time"

	"repro/internal/sim"
)

// Receiver is the receiving endpoint of a Flow. It acknowledges every
// data packet and models receive-buffer flow control: with a finite
// buffer and an application drain rate, it advertises shrinking windows
// under slow consumers — the mechanism behind "receiver-limited" flows
// in the M-Lab analysis.
type Receiver struct {
	eng    *sim.Engine
	sender *Sender

	returnPath  []*sim.Link
	returnDelay time.Duration

	// Flow control. bufCap == 0 means an unlimited buffer (always
	// advertise 0 == unlimited).
	bufCap    int
	drainRate float64 // bytes/s consumed by the application
	buffered  float64
	lastDrain time.Duration
}

func (r *Receiver) drain(now time.Duration) {
	if r.drainRate <= 0 || r.bufCap == 0 {
		r.buffered = 0
		r.lastDrain = now
		return
	}
	el := (now - r.lastDrain).Seconds()
	if el > 0 {
		r.buffered -= r.drainRate * el
		if r.buffered < 0 {
			r.buffered = 0
		}
		r.lastDrain = now
	}
}

func (r *Receiver) advertisedWindow() int {
	if r.bufCap == 0 {
		return 0 // unlimited
	}
	free := r.bufCap - int(r.buffered)
	if free < 0 {
		free = 0
	}
	return free
}

// Receive implements sim.Receiver for data packets. The receiver is
// the data packet's terminal consumer: the packet is recycled once its
// acknowledgment is on its way back.
func (r *Receiver) Receive(p *sim.Packet) {
	if p.Ack {
		p.Release()
		return
	}
	now := r.eng.Now()
	r.drain(now)
	r.buffered += float64(p.Size)
	ack := r.eng.NewPacket()
	ack.FlowID = p.FlowID
	ack.UserID = p.UserID
	ack.Seq = p.Seq
	ack.Size = ackSize
	ack.SentAt = now
	ack.Ack = true
	ack.RWnd = r.advertisedWindow()
	p.Release()
	if len(r.returnPath) > 0 {
		ack.Path = r.returnPath
		ack.Dest = r.sender
		sim.Inject(ack)
		return
	}
	// Fixed-delay return: deliver straight to the sender after
	// returnDelay without a per-ack closure.
	ack.Dest = r.sender
	r.eng.SchedulePacket(r.returnDelay, ack)
}
