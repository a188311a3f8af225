package sim

import (
	"fmt"
	"math"
	"math/bits"
	"time"
)

// This file implements the engine's hashed hierarchical timer wheel.
//
// Thousands of transport senders create a dense population of
// near-future timers (pacing releases, serialization completions,
// RTOs, and one front packet per busy delay line — propagation
// arrivals and returning acks are not staged one by one, their delay
// lines queue them; see delayline.go) that all live within a few RTTs
// of the clock. A comparison heap pays O(log n) per insert against the whole
// population. The wheel keeps that population out of the heap until it
// is about to fire: a near-future event is hashed into a time-slot
// bucket and waits there unsorted, and the engine moves one bucket at
// a time onto its heap, so the heap only ever orders the events of the
// tick being served plus the far or sparse timers (phase schedules,
// watchdogs) that were never staged.
//
// Ordering is the load-bearing invariant: every experiment's byte
// determinism rests on events firing in exact (at, seq) order, so the
// wheel must be invisible to any observer. It is, because it orders
// nothing:
//
//  1. Every event fires from the engine heap's root, and the heap
//     orders by (at, seq).
//  2. A bucket covers a span of time; `next` is the start of the
//     earliest occupied bucket, so every staged event is at or after
//     it.
//  3. Before each peek or pop the engine opens buckets until the heap
//     root is strictly before `next` (settle). The root then precedes
//     every staged event, so it is the global minimum.
//
// Buckets are singly-linked lists threaded through the engine's slot
// table: staging writes the list link of a slot that already exists
// and allocates nothing, and the wheel's footprint is the slot table's.
//
// Cancellation and postponement need no wheel surgery: a cancelled or
// postponed event keeps its seat and moves to the heap with its bucket.
// At the heap root a cancelled event is reaped; a postponed one is
// requeued under its due key, which is never earlier than its seat's,
// so it may be staged again. A delay line's slot is requeued the same
// way when it fires with packets behind it, under the next packet's
// key.
const (
	// wheelBits is the log2 bucket count per level.
	wheelBits  = 8
	wheelSlots = 1 << wheelBits
	wheelMask  = wheelSlots - 1
	// wheelLevels is the hierarchy depth. Level 0 buckets are one tick
	// wide; level 1 buckets are wheelSlots ticks wide.
	wheelLevels = 2
	// wheelTickBits sets the level-0 bucket width to 2^18ns (~262µs),
	// a power of two so hashing a time to its tick is a shift, not a
	// division. That puts pacing, serialization, and sub-RTT timers in
	// level 0 (horizon ~67ms), RTT/RTO-scale timers in level 1
	// (horizon ~17.2s), and leaves phase schedules and long watchdogs
	// to the heap.
	wheelTickBits = 18
	wheelTickDur  = time.Duration(1) << wheelTickBits
	// wheelMinPop is the pending-event population below which the
	// engine stages nothing: with a handful of timers the heap's log
	// depth is trivially cheap and the wheel's hashing and bitmap scans
	// are pure overhead (staging from the first event takes a sparse
	// schedule+fire from 20 to 35 ns; docs/PERFORMANCE.md). The
	// split is a performance policy only — pop order is (at, seq)
	// regardless of residence.
	wheelMinPop = 64
)

// wheelLevel is one ring of hashed buckets plus an occupancy bitmap
// for O(words) first-non-empty scans.
type wheelLevel struct {
	// head is each bucket's first staged event as slot index + 1, so
	// the zero value is an empty bucket; eventSlot.next continues the
	// list.
	head  [wheelSlots]int32
	occ   [wheelSlots / 64]uint64
	count int
}

// wheel is the two-level hashed hierarchical timer wheel. The zero
// value is ready for use.
type wheel struct {
	levels [wheelLevels]wheelLevel
	count  int
	// cur is the tick of the last bucket opened. The cursor that bounds
	// staging is the later of cur and the clock's tick: cur runs ahead
	// of the clock when buckets are opened to find the next event while
	// the clock waits far behind it.
	cur int64
	// next is the start time of the earliest occupied bucket;
	// meaningful while count > 0.
	next time.Duration
}

// nodeLess is the engine-wide event ordering: by time, FIFO by
// schedule sequence at equal times.
func nodeLess(a, b heapNode) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// wheelTick maps a virtual time to its level-0 tick index.
func wheelTick(at time.Duration) int64 { return int64(at) >> wheelTickBits }

// bucketStart returns the time at which the bucket for level tick lt
// (a tick shifted down by its level's shift) begins.
func bucketStart(lt int64, shift uint) time.Duration {
	return time.Duration(lt<<shift) << wheelTickBits
}

// stage hashes the event into the shallowest level able to hold it, or
// reports false when it belongs on the heap: its tick is not ahead of
// the cursor (that bucket has been opened already), or it lies beyond
// the wheel horizon. The per-level condition — fewer than wheelSlots
// of that level's own ticks ahead of the cursor — keeps staged events
// within one revolution per level, so a bucket index names one span of
// time and circular order from the cursor is time order.
func (e *Engine) stage(at time.Duration, slot int32) bool {
	w := &e.wheel
	t, c := wheelTick(at), wheelTick(e.now)
	if c < w.cur {
		c = w.cur
	}
	var level int
	switch {
	case t <= c:
		return false
	case t-c < wheelSlots:
		level = 0
	case (t>>wheelBits)-(c>>wheelBits) < wheelSlots:
		level = 1
	default:
		return false
	}
	w.link(e.slots, level, t, slot)
	shift := uint(level * wheelBits)
	if start := bucketStart(t>>shift, shift); w.count == 0 || start < w.next {
		w.next = start
	}
	w.count++
	return true
}

// link puts slot at the head of the level's bucket for tick t.
func (w *wheel) link(slots []eventSlot, level int, t int64, slot int32) {
	lv := &w.levels[level]
	idx := int((t >> uint(level*wheelBits)) & wheelMask)
	slots[slot].next = lv.head[idx]
	lv.head[idx] = slot + 1
	lv.occ[idx>>6] |= 1 << uint(idx&63)
	lv.count++
}

// take empties bucket idx and returns the head of its list.
func (lv *wheelLevel) take(idx int) int32 {
	head := lv.head[idx]
	lv.head[idx] = 0
	lv.occ[idx>>6] &^= 1 << uint(idx&63)
	return head
}

// settle opens buckets until the heap root precedes everything still
// staged, which makes it the global (at, seq) minimum. An empty wheel
// (the sparse-population common case) costs one comparison.
func (e *Engine) settle() {
	for e.wheel.count > 0 && (len(e.heap) == 0 || e.wheel.next <= e.heap[0].at) {
		e.open()
	}
}

// open empties the earliest occupied bucket, the one that starts at
// w.next, and advances the cursor to it. A level-0 bucket goes onto
// the heap; a level-1 bucket is spread over level 0, which it now fits
// because the cursor stands at its first tick. Where both levels have
// a bucket starting at w.next the level-1 one opens first, so the
// cursor never enters a level-1 span that is still staged.
func (e *Engine) open() {
	w := &e.wheel
	t := wheelTick(w.next)
	w.cur = t
	l0, l1 := &w.levels[0], &w.levels[1]
	if idx := int((t >> wheelBits) & wheelMask); t&wheelMask == 0 && l1.head[idx] != 0 {
		for i := l1.take(idx); i != 0; {
			slot := i - 1
			i = e.slots[slot].next
			w.link(e.slots, 0, wheelTick(e.slots[slot].at), slot)
			l1.count--
		}
	} else {
		for i := l0.take(int(t & wheelMask)); i != 0; {
			s := &e.slots[i-1]
			e.heapPush(heapNode{at: s.at, seq: s.seq, slot: i - 1})
			i = s.next
			l0.count--
			w.count--
		}
	}
	w.next = w.earliest()
}

// earliest returns the start time of the first occupied bucket at or
// after the cursor across both levels (the maximum Duration when the
// wheel is empty).
func (w *wheel) earliest() time.Duration {
	first := time.Duration(math.MaxInt64)
	for l := range w.levels {
		lv := &w.levels[l]
		if lv.count == 0 {
			continue
		}
		shift := uint(l * wheelBits)
		c := w.cur >> shift
		ahead := int64(lv.firstFrom(int(c&wheelMask))) - c
		if start := bucketStart(c+(ahead&wheelMask), shift); start < first {
			first = start
		}
	}
	return first
}

// firstFrom returns the index of the first occupied bucket at or
// after `from` in circular scan order; the level must not be empty.
// Because staged events span less than one revolution, circular order
// from the cursor is time order.
func (lv *wheelLevel) firstFrom(from int) int {
	w, b := from>>6, uint(from&63)
	if v := lv.occ[w] >> b; v != 0 {
		return from + bits.TrailingZeros64(v)
	}
	const words = wheelSlots / 64
	for i := 1; i <= words; i++ {
		wi := (w + i) % words
		if v := lv.occ[wi]; v != 0 {
			return wi<<6 + bits.TrailingZeros64(v)
		}
	}
	panic("sim: wheel level count > 0 with an empty occupancy bitmap")
}

// resetWheel frees every staged event's slot (in no particular order)
// and rewinds the cursor with the clock.
func (e *Engine) resetWheel() {
	w := &e.wheel
	for l := range w.levels {
		lv := &w.levels[l]
		for idx := range lv.head {
			for i := lv.head[idx]; i != 0; {
				slot := i - 1
				i = e.slots[slot].next
				e.freeSlot(slot)
			}
		}
	}
	*w = wheel{}
}

// verifyWheel checks the wheel's structural invariants: every bucket
// list is in range and acyclic (slotCheck, which also ties the lists
// to the heap and the free list), the occupancy bitmap matches, every
// event sits in the bucket its time hashes to, ahead of the cursor
// (the later of cur and the clock's tick: a bucket either of them has
// reached must have been opened) and within one revolution of it,
// `next` is exactly the earliest occupied bucket's start, and the
// counts add up.
func (e *Engine) verifyWheel(slotCheck func(int32) error) error {
	w := &e.wheel
	c := wheelTick(e.now)
	if c < w.cur {
		c = w.cur
	}
	total := 0
	first := time.Duration(math.MaxInt64)
	for l := range w.levels {
		lv := &w.levels[l]
		shift := uint(l * wheelBits)
		lvlTotal := 0
		for idx, head := range lv.head {
			if occupied := lv.occ[idx>>6]&(1<<uint(idx&63)) != 0; occupied != (head != 0) {
				return fmt.Errorf("wheel L%d bucket %d: occupancy bit %v but list head %d", l, idx, occupied, head)
			}
			for i := head; i != 0; i = e.slots[i-1].next {
				// Out-of-range links and cycles stop here: a list that
				// loops reaches a slot already seen.
				if err := slotCheck(i - 1); err != nil {
					return fmt.Errorf("wheel L%d bucket %d: %w", l, idx, err)
				}
				lvlTotal++
				s := &e.slots[i-1]
				t := wheelTick(s.at) >> shift
				if int(t&wheelMask) != idx {
					return fmt.Errorf("wheel L%d: event at %v hashed to bucket %d, stored in %d", l, s.at, t&wheelMask, idx)
				}
				if d := t - c>>shift; d < 1 || d >= wheelSlots {
					return fmt.Errorf("wheel L%d: event at %v is %d level-ticks from cursor tick %d, outside [1,%d)", l, s.at, d, c, wheelSlots)
				}
				if start := bucketStart(t, shift); start < first {
					first = start
				}
			}
		}
		if lvlTotal != lv.count {
			return fmt.Errorf("wheel L%d count %d but %d events in buckets", l, lv.count, lvlTotal)
		}
		total += lvlTotal
	}
	if total != w.count {
		return fmt.Errorf("wheel count %d but %d events in buckets", w.count, total)
	}
	if total > 0 && first != w.next {
		return fmt.Errorf("wheel next %v but the earliest occupied bucket starts at %v", w.next, first)
	}
	return nil
}
