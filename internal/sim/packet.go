package sim

import "time"

// MSS is the maximum segment size in bytes used throughout the
// emulator. Rate math treats a packet's Size as its full wire size.
const MSS = 1500

// Packet is the unit of transmission. Packets are allocated by senders
// and flow through links to a final Receiver; they are not copied, so a
// packet must not be re-injected while in flight.
//
// Hot-path packets come from a per-engine free list (Engine.NewPacket)
// and are recycled with Release once they terminate: delivered and
// fully consumed, or dropped. Engine.Reset takes back the ones a run
// never released. Packets built with a plain composite literal (tests,
// injected duplicates) are also accepted everywhere; Release on them
// is a no-op and the garbage collector reclaims them.
type Packet struct {
	// FlowID identifies the transport flow the packet belongs to; queue
	// disciplines use it for per-flow scheduling.
	FlowID int
	// UserID identifies the subscriber the flow belongs to; per-user
	// isolation mechanisms (shapers, HTB-style qdiscs) key on it.
	UserID int
	// Seq is the sender's sequence number for data packets, or the
	// sequence being acknowledged for ACK packets.
	Seq int64
	// Size is the packet size in bytes.
	Size int
	// SentAt is the virtual time the packet entered the network.
	SentAt time.Duration
	// Retx marks retransmissions.
	Retx bool
	// Ack marks acknowledgment packets.
	Ack bool
	// live is pool bookkeeping (see owner below), kept in the padding
	// after the flags so the struct stays 112 bytes.
	live bool

	// Path is the ordered list of links the packet traverses; Dest
	// receives it after the final hop. An empty Path delivers directly.
	Path []*Link
	hop  int
	Dest Receiver

	// Pool bookkeeping. owner is the engine whose free list the packet
	// belongs to (nil for literal-built packets); gen increments on
	// every Release, so validation layers can detect a packet that was
	// recycled while a stale reference still points at it; index is the
	// packet's position in its engine's pool.all, fixed when it is
	// first allocated; live guards against double release.
	owner *Engine
	gen   uint32
	index int32
}

// packetPool is a per-engine LIFO free list. Engines are
// single-goroutine, so the pool needs no synchronization, and reuse
// order is deterministic: a seeded run recycles the same packets in
// the same order every time.
type packetPool struct {
	free []*Packet
	// all is every packet the engine allocated, so Reset can take back
	// the ones the run never released.
	all []*Packet
}

// NewPacket returns a zeroed packet from the engine's free list,
// allocating only when the list is empty. The caller fills the public
// fields and injects it; whoever terminally consumes the packet calls
// Release.
func (e *Engine) NewPacket() *Packet {
	var p *Packet
	if n := len(e.pool.free); n > 0 {
		p = e.pool.free[n-1]
		e.pool.free[n-1] = nil
		e.pool.free = e.pool.free[:n-1]
		*p = Packet{owner: e, gen: p.gen, index: p.index, live: true}
	} else {
		p = &Packet{owner: e, index: int32(len(e.pool.all)), live: true}
		e.pool.all = append(e.pool.all, p)
	}
	if e.hook != nil {
		e.hook.OnAlloc(p)
	}
	return p
}

// Release returns a pooled packet to its engine's free list. It must
// be called exactly once, by the packet's terminal consumer: the
// receiver that absorbed it, or the drop point that discarded it. A
// released packet must not be touched again — the next NewPacket may
// recycle it. Release on a non-pooled (literal-built) packet is a
// no-op; releasing the same pooled packet twice panics, since the
// second release would corrupt the free list.
func (p *Packet) Release() {
	e := p.owner
	if e == nil {
		return
	}
	if !p.live {
		panic("sim: packet released twice (or released while still in flight and recycled)")
	}
	if e.hook != nil {
		e.hook.OnFree(p)
	}
	p.live = false
	p.gen++
	p.Path = nil
	p.Dest = nil
	e.pool.free = append(e.pool.free, p)
}

// Clone returns a heap copy of the packet detached from any pool: the
// copy's Release is a no-op and the garbage collector reclaims it.
// Fault injectors use it to duplicate in-flight packets without
// forging a second pooled reference to the same free list.
func (p *Packet) Clone() *Packet {
	cp := *p
	cp.owner = nil
	cp.live = false
	cp.gen = 0
	cp.index = 0
	return &cp
}

// Generation returns the packet's recycle generation: it increments
// every time the packet passes through Release, so a holder of a stale
// reference can detect reuse. Validation layers (internal/sim/check)
// pair it with engine hooks to prove the absence of use-after-free.
func (p *Packet) Generation() uint32 { return p.gen }

// PoolIndex returns the packet's position among the packets its engine
// ever allocated: dense from 0 and fixed for the packet's life, so a
// validation layer can keep per-packet state in a slice instead of a
// map. It is 0 for a packet that is not Pooled.
func (p *Packet) PoolIndex() int { return int(p.index) }

// Receiver consumes packets at the end of their path. Transport
// endpoints implement Receiver.
type Receiver interface {
	Receive(p *Packet)
}

// ReceiverFunc adapts a function to the Receiver interface.
type ReceiverFunc func(p *Packet)

// Receive implements Receiver.
func (f ReceiverFunc) Receive(p *Packet) { f(p) }

// Inject starts the packet on its path. It must be called exactly once
// per packet. If the packet has no path it is delivered to Dest
// immediately (zero latency).
func Inject(p *Packet) {
	p.hop = 0
	if len(p.Path) == 0 {
		if p.Dest != nil {
			p.Dest.Receive(p)
		}
		return
	}
	p.Path[0].Send(p)
}

// advance moves the packet to its next hop after finishing a link, or
// delivers it.
func advance(p *Packet) {
	p.hop++
	if p.hop < len(p.Path) {
		p.Path[p.hop].Send(p)
		return
	}
	if p.Dest != nil {
		p.Dest.Receive(p)
	}
}
