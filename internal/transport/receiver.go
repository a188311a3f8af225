package transport

import "repro/internal/sim"

// Receiver is the receiving endpoint of a Flow. It acknowledges every
// data packet after a fixed return delay; its buffer is unbounded, so
// it never advertises a window.
type Receiver struct {
	eng    *sim.Engine
	sender *Sender
	// ret carries acknowledgments back to the sender.
	ret *sim.DelayLine
}

// Receive implements sim.Receiver for data packets. The receiver is
// the data packet's terminal consumer: the packet is recycled once its
// acknowledgment is on its way back.
func (r *Receiver) Receive(p *sim.Packet) {
	if p.Ack {
		p.Release()
		return
	}
	ack := r.eng.NewPacket()
	ack.FlowID = p.FlowID
	ack.UserID = p.UserID
	ack.Seq = p.Seq
	ack.Size = ackSize
	ack.SentAt = r.eng.Now()
	ack.Ack = true
	p.Release()
	// Deliver straight to the sender after the return delay.
	ack.Dest = r.sender
	r.ret.Push(ack)
}
