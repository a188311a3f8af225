// Package sim implements a deterministic packet-level discrete-event
// network emulator: an event engine with a virtual clock, links that
// serialize packets at a configured rate through a pluggable queue
// discipline, and a packet/receiver model that transport endpoints
// build on.
//
// The emulator plays the role Mahimahi plays in the paper's Figure 3
// experiment: a fixed-rate bottleneck with propagation delay and a
// finite queue. All behaviour is deterministic given the scheduled
// event order; randomness only enters through workload generators that
// take an injected *rand.Rand.
//
// The engine is the hot path of every experiment and sweep, so its
// steady state allocates nothing: events are ordered by one indexed
// 4-ary heap of plain structs (no container/heap interface boxing)
// whose nodes index a recycled slot table of event payloads, packets
// in propagation or on their way back as acks wait in per-delay lines
// of which only the front packet is queued (see delayline.go), timers
// are generation-checked indices rather than per-schedule allocations,
// a re-armed timer moves in place (Timer.Postpone) instead of leaving
// a cancelled copy queued behind it, and packets cycle through a
// per-engine free list (see NewPacket/Release).
//
// An engine is also its run's arena: Reset hands back everything a run
// grew to its peak — the slot table and heap, every packet
// (delivered, queued in a qdisc the run left behind, or still in
// flight), the random generators Rand handed out, and the buffers
// taken from Slices, delay-line rings among them — so a sweep that
// runs cell after cell on one engine stops paying each cell's set-up
// in allocations. See
// docs/PERFORMANCE.md for the design and internal/sim/check for the
// invariant checker and golden-trace corpus that gate changes here.
package sim

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/obs"
)

// Hook observes engine-internal transitions for validation layers.
// internal/sim/check's Checker is one: a manyflow cell with Check set,
// as every shipped manyflow run is, installs it for the whole run.
// With no hook installed every hook site costs one branch. Hooks run
// synchronously on the engine's goroutine.
type Hook interface {
	// OnSchedule fires when an event is enqueued (after past-time
	// clamping); seq is the event's global FIFO tie-break number.
	OnSchedule(at time.Duration, seq int64)
	// OnFire fires just before an event executes.
	OnFire(at time.Duration, seq int64)
	// OnAlloc fires when NewPacket hands out a packet (fresh or
	// recycled).
	OnAlloc(p *Packet)
	// OnFree fires when Release returns a packet to the free list,
	// before its generation is bumped.
	OnFree(p *Packet)
}

// Engine is a discrete-event scheduler with a virtual clock. The zero
// value is ready for use; the clock starts at 0.
//
// One indexed 4-ary min-heap keyed by (time, schedule order) is the
// only ordered structure: every event fires from its root. A delay
// line's packets are already in order, so the line queues them itself
// and only its front packet holds a slot in the heap. Heap nodes hold
// indices into a recycled slot table, so steady-state scheduling
// allocates nothing. A postponed event keeps its one seat, under its
// old key, until that key reaches the root; it is then requeued under
// the key Postpone gave it. Engines are single-goroutine; parallel
// sweeps run one engine per worker.
type Engine struct {
	now time.Duration
	seq int64
	// Processed counts events executed, for tests and runaway guards.
	Processed int64
	// lined counts the packets waiting in delay lines behind their
	// lines' fronts: queued events that hold no slot.
	lined int

	heap  []heapNode  // 4-ary min-heap every event fires from
	slots []eventSlot // stable payload storage indexed by heapNode.slot
	free  []int32     // recycled slot indices (LIFO)

	pool packetPool
	// rands are the generators Rand handed out; the first nrand belong
	// to the current run, the rest wait to be re-seeded.
	rands []*rand.Rand
	nrand int
	// lines holds the delay lines DelayLine handed out, one per delay:
	// the first nline belong to the current run, the rest wait to be
	// reused.
	lines []*DelayLine
	nline int
	// slices holds one *Slices[T] per element type, keyed by a typed
	// nil *Slices[T].
	slices map[any]reclaimer
	hook   Hook
	// The padding makes an Engine whole 64-byte cache lines, so its
	// allocation size class is too and no engine shares a line with
	// another object. Sweeps run one engine per worker goroutine; at
	// 240 bytes two workers' engines shared lines, and the ledger's
	// two-worker census-cells and hunt-harm ran 19 % and 27 % slower.
	// TestEngineFillsWholeCacheLines keeps the size a multiple of 64.
	_ [16]byte
}

// heapNode is one pending event's ordering key plus the index of its
// payload slot. Nodes move during sifts; slots never move, so Timer
// handles stay valid.
type heapNode struct {
	at   time.Duration
	seq  int64
	slot int32
}

// eventSlot holds an event's payload and the time at which its heap
// node is queued, which Postpone compares against; the node holds the
// full (at, seq) key. gen increments every time the slot is released,
// so stale Timer handles (fired, cancelled, or dropped by Reset) can
// never touch a recycled slot's new occupant. dueSeq says what happens
// when the queued key reaches the heap root: 0, the event fires;
// cancelledSeq, it is dropped; a sequence number, Postpone moved it
// and it is requeued under (dueAt, dueSeq). A slot held by a delay
// line runs no fn: it is queued under the line's front packet's key
// and fires that packet.
type eventSlot struct {
	at     time.Duration
	dueAt  time.Duration
	dueSeq int64
	fn     func()
	line   *DelayLine
	gen    uint32
}

// nodeLess is the engine-wide event ordering: by time, FIFO by
// schedule sequence at equal times.
func nodeLess(a, b heapNode) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// cancelledSeq marks a cancelled event's eventSlot.dueSeq; real
// sequence numbers start at 1.
const cancelledSeq = -1

// Timer is a generation-checked handle to a scheduled event. The zero
// Timer is inert: Cancel on it is a no-op. Timers are plain values;
// scheduling does not allocate.
type Timer struct {
	eng  *Engine
	slot int32
	gen  uint32
}

// Cancel prevents the associated event from running if it has not run
// yet. Cancelling an already-fired, already-cancelled, or zero Timer
// is a no-op, as is cancelling after Reset: the generation check makes
// stale handles inert even when their slot has been recycled for a new
// event.
func (t Timer) Cancel() {
	if t.eng == nil || int(t.slot) >= len(t.eng.slots) {
		return
	}
	s := &t.eng.slots[t.slot]
	if s.gen != t.gen {
		return // slot recycled: this timer's event already fired or was dropped
	}
	s.dueSeq = cancelledSeq
	s.fn = nil
}

// Active reports whether the timer's event is still pending.
func (t Timer) Active() bool {
	if t.eng == nil || int(t.slot) >= len(t.eng.slots) {
		return false
	}
	s := &t.eng.slots[t.slot]
	return s.gen == t.gen && s.dueSeq != cancelledSeq
}

// Postpone moves the timer's pending event to absolute time at, with
// the same effect as Cancel followed by ScheduleAt(at) with the same
// handler: the event takes the next schedule sequence number, the hook
// sees it scheduled at (at, seq), and it fires after every event
// already due at at. The event itself does not move. Its slot records
// the new key, and the engine requeues it under that key when the old
// one reaches the heap root, so a timer re-armed on every packet
// leaves no cancelled copy in the queue and the Timer stays valid.
// Postpone does nothing and reports false when the timer is not
// pending or at is before the time the event is queued under; the
// caller then cancels and reschedules.
func (t Timer) Postpone(at time.Duration) bool {
	if !t.Active() {
		return false
	}
	e := t.eng
	s := &e.slots[t.slot]
	if at < s.at {
		return false
	}
	e.seq++
	if e.hook != nil {
		e.hook.OnSchedule(at, e.seq)
	}
	s.dueAt, s.dueSeq = at, e.seq
	return true
}

// SetHook installs a validation hook, replacing any installed one; nil
// removes it. check.Attach installs its Checker through it, and core's
// engine pool removes a run's hook before the next run gets the
// engine; Reset leaves the hook installed.
func (e *Engine) SetHook(h Hook) { e.hook = h }

// Now returns the current virtual time.
func (e *Engine) Now() time.Duration { return e.now }

// Schedule runs fn after delay of virtual time. A negative delay is
// treated as zero (run at the current time, after already-queued events
// at that time). It returns a Timer that can cancel the event.
func (e *Engine) Schedule(delay time.Duration, fn func()) Timer {
	if delay < 0 {
		delay = 0
	}
	return e.ScheduleAt(e.now+delay, fn)
}

// ScheduleAt runs fn at absolute virtual time at. Times in the past are
// clamped to now. Events at equal times run in scheduling order.
func (e *Engine) ScheduleAt(at time.Duration, fn func()) Timer {
	slot := e.allocSlot()
	e.slots[slot].fn = fn
	return e.push(at, slot)
}

// allocSlot returns a free payload slot, growing the table only when
// the free list is empty (steady state recycles).
func (e *Engine) allocSlot() int32 {
	if n := len(e.free); n > 0 {
		slot := e.free[n-1]
		e.free = e.free[:n-1]
		return slot
	}
	e.slots = append(e.slots, eventSlot{})
	return int32(len(e.slots) - 1)
}

// freeSlot clears a slot's payload and returns it to the free list,
// bumping the generation so outstanding Timer handles become inert.
func (e *Engine) freeSlot(slot int32) {
	s := &e.slots[slot]
	s.gen++
	s.dueSeq = 0
	s.fn = nil
	s.line = nil
	e.free = append(e.free, slot)
}

// push clamps at to now, assigns the FIFO tie-break sequence, and
// queues the event.
func (e *Engine) push(at time.Duration, slot int32) Timer {
	if at < e.now {
		at = e.now
	}
	e.seq++
	if e.hook != nil {
		e.hook.OnSchedule(at, e.seq)
	}
	e.heapPush(at, e.seq, slot)
	return Timer{eng: e, slot: slot, gen: e.slots[slot].gen}
}

// heapPush puts the slot on the heap under (at, seq).
func (e *Engine) heapPush(at time.Duration, seq int64, slot int32) {
	e.slots[slot].at = at
	e.heap = append(e.heap, heapNode{at: at, seq: seq, slot: slot})
	e.siftUp(len(e.heap) - 1)
}

func (e *Engine) siftUp(i int) {
	h := e.heap
	n := h[i]
	for i > 0 {
		parent := (i - 1) / 4
		if !nodeLess(n, h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = n
}

func (e *Engine) siftDown(i int) {
	h := e.heap
	n := h[i]
	size := len(h)
	for {
		first := 4*i + 1
		if first >= size {
			break
		}
		best := first
		last := first + 4
		if last > size {
			last = size
		}
		for c := first + 1; c < last; c++ {
			if nodeLess(h[c], h[best]) {
				best = c
			}
		}
		if !nodeLess(h[best], n) {
			break
		}
		h[i] = h[best]
		i = best
	}
	h[i] = n
}

// popMin removes and returns the earliest heap node. The caller
// must know the heap is non-empty.
func (e *Engine) popMin() heapNode {
	h := e.heap
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	e.heap = h[:last]
	if last > 0 {
		e.siftDown(0)
	}
	return top
}

// peekAt returns the time of the earliest event due to fire, leaving
// it at the heap root. Roots that are not due on the way are resolved
// first: a cancelled event is reaped and a postponed one requeued
// under its due key, which is never earlier than the key it left. A
// root that will not fire at its key must not stand in for the next
// event's time, or Run would step past until to reach the event behind
// it.
func (e *Engine) peekAt() (time.Duration, bool) {
	for {
		if len(e.heap) == 0 {
			return 0, false
		}
		root := e.heap[0]
		s := &e.slots[root.slot]
		switch s.dueSeq {
		case 0:
			return root.at, true
		case cancelledSeq:
			e.popMin()
			e.freeSlot(root.slot)
		default: // postponed
			e.requeueRoot(s.dueAt, s.dueSeq)
			s.dueSeq = 0
		}
	}
}

// requeueRoot re-keys the heap root in place to (at, seq), which is
// never earlier than its current key, and sifts it down: one sift
// where pop and push would be two.
func (e *Engine) requeueRoot(at time.Duration, seq int64) {
	root := &e.heap[0]
	e.slots[root.slot].at = at
	root.at, root.seq = at, seq
	e.siftDown(0)
}

// Step executes the next pending event, advancing the clock. It returns
// false when no events remain.
func (e *Engine) Step() bool {
	if _, ok := e.peekAt(); !ok {
		return false
	}
	e.fireRoot()
	return true
}

// fireRoot runs the heap root, which peekAt has just resolved to an
// event due to fire. A delay line's slot fires the line's front packet
// and is requeued under the next packet's key, as peekAt requeues a
// postponed root; any other slot is popped.
func (e *Engine) fireRoot() {
	node := e.heap[0]
	s := &e.slots[node.slot]
	e.now = node.at
	e.Processed++
	if e.hook != nil {
		e.hook.OnFire(node.at, node.seq)
	}
	if l := s.line; l != nil {
		p := l.pop()
		if l.n == 0 {
			e.popMin()
			e.freeSlot(node.slot)
		} else {
			e.lined--
			f := l.front()
			e.requeueRoot(f.at, f.seq)
		}
		advance(p)
		return
	}
	e.popMin()
	fn := s.fn
	// Free before running: the handler may schedule (recycling this
	// slot under a new generation), and the fired event's own Timer
	// must already be inert.
	e.freeSlot(node.slot)
	fn()
}

// Run executes, in order, every event due at or before until,
// including events those handlers schedule in that range. When until
// is at or after the clock, the clock is left exactly at until,
// whether the queue drained on the way or later events remain. When
// until is before the clock, nothing runs and the clock does not move
// back.
func (e *Engine) Run(until time.Duration) {
	for {
		at, ok := e.peekAt()
		if !ok || at > until {
			break
		}
		e.fireRoot()
	}
	if e.now < until {
		e.now = until
	}
}

// Pending returns the number of events currently queued, including
// cancelled-but-unreaped ones and every packet in a delay line. A
// postponed event is queued once, however often it was postponed.
func (e *Engine) Pending() int { return len(e.heap) + e.lined }

// Reset discards every pending event and rewinds the clock and
// Processed, leaving the engine ready for a fresh run that cannot tell
// it from a new engine. It keeps what the last run grew and hands it
// back for reuse:
//
//   - the slot table and heap. Slot generations are bumped, so
//     Timer handles that outlive the reset are inert: cancelling one
//     can never touch an event scheduled after the reset, even when
//     its slot has been recycled. Packets waiting in delay lines are
//     dropped with them.
//   - every packet NewPacket allocated, including packets still
//     queued or in flight: each one not yet released is released
//     (the hook sees OnFree) and goes back on the free list.
//   - every generator Rand handed out, re-seeded by the next calls,
//     and every line DelayLine handed out.
//   - every buffer a Slices handed out, delay-line rings included.
//
// Nothing from before the reset may be used after it: a packet, a
// generator, a buffer or a delay line may belong to the next run. The
// hook stays installed.
func (e *Engine) Reset() {
	for _, node := range e.heap {
		e.freeSlot(node.slot)
	}
	e.heap = e.heap[:0]
	e.lined = 0
	e.nline = 0
	for _, p := range e.pool.all {
		if p.live {
			p.Release()
		}
	}
	e.nrand = 0
	for _, s := range e.slices {
		s.reclaim()
	}
	e.now = 0
	e.seq = 0
	e.Processed = 0
}

// Rand returns a generator seeded with seed: the stream it yields is
// the one rand.New(rand.NewSource(seed)) yields, but seeding it costs
// O(1) rather than a 607-word fill (see seedSource). The generator is
// the engine's. A Reset takes it back and a later call re-seeds it
// instead of allocating a new one, so it must not be used past the run.
func (e *Engine) Rand(seed int64) *rand.Rand {
	if e.nrand == len(e.rands) {
		e.rands = append(e.rands, NewRand(seed))
	} else {
		e.rands[e.nrand].Seed(seed)
	}
	e.nrand++
	return e.rands[e.nrand-1]
}

// verifyHeap checks the 4-ary heap's ordering invariant and its
// linkage to the slot table, the free list and the delay lines; the
// scheduling tests call it after every operation. It returns nil when
// the structure is sound.
func (e *Engine) verifyHeap() error {
	seen := make(map[int32]bool, len(e.heap))
	lined := 0
	for i, n := range e.heap {
		if i > 0 {
			parent := (i - 1) / 4
			if nodeLess(n, e.heap[parent]) {
				return fmt.Errorf("heap order violated at %d: node (%v, %d) < parent (%v, %d)",
					i, n.at, n.seq, e.heap[parent].at, e.heap[parent].seq)
			}
		}
		if n.slot < 0 || int(n.slot) >= len(e.slots) {
			return fmt.Errorf("node references slot %d outside table of %d", n.slot, len(e.slots))
		}
		if seen[n.slot] {
			return fmt.Errorf("slot %d referenced by two pending nodes", n.slot)
		}
		seen[n.slot] = true
		s := &e.slots[n.slot]
		if s.at != n.at {
			return fmt.Errorf("heap node (%v, %d) but its slot %d is queued at %v", n.at, n.seq, n.slot, s.at)
		}
		if s.dueSeq > 0 && (s.dueAt < n.at || s.dueSeq <= n.seq) {
			return fmt.Errorf("slot %d postponed to (%v, %d), before its queued key (%v, %d)",
				n.slot, s.dueAt, s.dueSeq, n.at, n.seq)
		}
		if s.line != nil {
			lined += s.line.n - 1
			if err := verifyLine(n, s); err != nil {
				return err
			}
		}
	}
	for _, slot := range e.free {
		if seen[slot] {
			return fmt.Errorf("slot %d both pending and on the free list", slot)
		}
	}
	if len(seen)+len(e.free) != len(e.slots) {
		return fmt.Errorf("slot accounting: %d pending + %d free != %d total",
			len(seen), len(e.free), len(e.slots))
	}
	if lined != e.lined {
		return fmt.Errorf("delay lines hold %d packets behind their fronts, engine counts %d", lined, e.lined)
	}
	return nil
}

// verifyLine checks a delay line's heap node: the line is not empty,
// the node is queued under the front packet's key and cannot be
// cancelled or postponed, and the packets are in strict (at, seq)
// order.
func verifyLine(n heapNode, s *eventSlot) error {
	l := s.line
	if l.n < 1 || l.n > len(l.ring) {
		return fmt.Errorf("slot %d holds a delay line of %d packets in a ring of %d", n.slot, l.n, len(l.ring))
	}
	if f := l.front(); n.at != f.at || n.seq != f.seq || s.dueSeq != 0 {
		return fmt.Errorf("delay-line slot %d queued under (%v, %d) due %d, front packet is (%v, %d)",
			n.slot, n.at, n.seq, s.dueSeq, f.at, f.seq)
	}
	for i := 1; i < l.n; i++ {
		a, b := l.ring[(l.head+i-1)&(len(l.ring)-1)], l.ring[(l.head+i)&(len(l.ring)-1)]
		if !nodeLess(heapNode{at: a.at, seq: a.seq}, heapNode{at: b.at, seq: b.seq}) {
			return fmt.Errorf("delay line of slot %d out of order: (%v, %d) before (%v, %d)", n.slot, a.at, a.seq, b.at, b.seq)
		}
	}
	return nil
}

// RegisterMetrics exposes the engine's counters on the registry as
// live (pull-style) gauges: processed event count (sim.engine.events),
// pending queue depth (sim.engine.pending), and the virtual clock in
// seconds (sim.engine.now_s). All timestamps observable through these
// metrics are sim-time; the engine never reads the wall clock.
func (e *Engine) RegisterMetrics(reg *obs.Registry) {
	if reg == nil {
		return
	}
	reg.RegisterFunc("sim.engine.events", "", func() float64 { return float64(e.Processed) })
	reg.RegisterFunc("sim.engine.pending", "", func() float64 { return float64(e.Pending()) })
	reg.RegisterFunc("sim.engine.now_s", "", func() float64 { return e.Now().Seconds() })
}
