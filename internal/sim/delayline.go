package sim

import "time"

// DelayLine is a fixed-delay FIFO of packets: links' propagation and
// receivers' acknowledgment return. Every packet pushed resumes its
// journey (see advance) delay after the push, so a line's packets are
// due in push order — the delay never changes and the clock never goes
// back — and their (at, seq) keys already stand in the engine's global
// order. The line therefore queues them in a ring and only its front
// packet holds an event slot in the engine's heap. When that slot
// fires, the engine re-keys it in place to the next packet's key (or
// frees it when the line empties), so the heap orders one event per
// line instead of one per packet in flight.
//
// The order holds for any pushes of one delay, whoever makes them, so
// an engine keeps one line per delay (Engine.DelayLine): a dumbbell's
// bottleneck propagation and every flow's ack return over the same
// one-way delay share it, and a flow's receiver holds a pointer, not a
// ring.
//
// To every observer a line is one event per packet: a push takes the
// next schedule sequence number and is reported to the Hook's
// OnSchedule, and each packet's arrival is an event of its own — it
// sets the clock, counts in Processed and is reported to OnFire under
// the key its push took — so fire order, and everything derived from
// it, is exactly what one engine event per packet would give.
//
// A line belongs to its engine's run: Reset takes it back with every
// packet still in it, and its ring, which comes from the engine's
// store.
type DelayLine struct {
	eng   *Engine
	delay time.Duration
	// ring holds the queued packets, front at head; its length is a
	// power of two (zero before the first push).
	ring []lineEntry
	head int
	n    int
}

// lineEntry is one queued packet and the key its push took.
type lineEntry struct {
	at  time.Duration
	seq int64
	pkt *Packet
}

// DelayLine returns the engine's delay line for delay (a negative one
// is zero), creating it on the run's first call for that delay. Lines
// are the engine's, like the generators Rand hands out: Reset takes
// them back and later calls reuse them.
func (e *Engine) DelayLine(delay time.Duration) *DelayLine {
	delay = max(delay, 0)
	// A run has a handful of distinct delays (its links' and its
	// return paths'), so a scan is as quick as a map lookup.
	for _, l := range e.lines[:e.nline] {
		if l.delay == delay {
			return l
		}
	}
	if e.nline == len(e.lines) {
		e.lines = append(e.lines, &DelayLine{})
	}
	l := e.lines[e.nline]
	e.nline++
	*l = DelayLine{eng: e, delay: delay}
	return l
}

// Push starts p's traversal of the line: after the line's delay, p
// advances to its next path hop, or is delivered to its Dest when the
// path is exhausted.
func (l *DelayLine) Push(p *Packet) {
	e := l.eng
	at := e.now + l.delay
	e.seq++
	if e.hook != nil {
		e.hook.OnSchedule(at, e.seq)
	}
	if l.n == len(l.ring) {
		l.grow()
	}
	l.ring[(l.head+l.n)&(len(l.ring)-1)] = lineEntry{at: at, seq: e.seq, pkt: p}
	l.n++
	if l.n > 1 {
		e.lined++
		return
	}
	slot := e.allocSlot()
	e.slots[slot].line = l
	e.heapPush(at, e.seq, slot)
}

// grow doubles the ring (16 entries the first time), unwrapping the
// queued entries to the front of the new one, and hands the outgrown
// ring back to the engine's store.
func (l *DelayLine) grow() {
	rings := SlicesOf[lineEntry](l.eng)
	old := l.ring
	l.ring = rings.Get(max(2*len(old), 16))
	for i := 0; i < l.n; i++ {
		l.ring[i] = old[(l.head+i)&(len(old)-1)]
	}
	l.head = 0
	if old != nil {
		rings.Put(old)
	}
}

// pop removes the front entry and returns its packet.
func (l *DelayLine) pop() *Packet {
	f := &l.ring[l.head]
	p := f.pkt
	f.pkt = nil
	l.head = (l.head + 1) & (len(l.ring) - 1)
	l.n--
	return p
}

// front returns the entry the line's slot is queued under.
func (l *DelayLine) front() *lineEntry { return &l.ring[l.head] }
