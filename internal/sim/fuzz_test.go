package sim

import (
	"bytes"
	"testing"
	"time"
)

// FuzzEngineSchedule drives the engine through adversarial
// interleavings of schedule, cancel, postpone, step, run, reset, and
// pooled packets pushed down two delay lines of different fixed
// delays or orphaned (never released, as in a qdisc the run leaves
// behind), re-verifying the indexed heap and the delay lines after
// every operation and the (time, seq) fire order throughout. Every
// operation is mirrored onto a reference engine on which every
// postpone is Cancel + ScheduleAt, every delay-line push is one event
// of its own, and which a reset replaces with a new engine, so
// Postpone, delay lines and Reset are fuzz-checked for identical
// schedule and fire streams, processed counts, events still to fire
// (packets waiting in a line included) and handlers run. Reset must
// also take back every packet, queued, in flight or orphaned, and no
// packet may be handed out twice while live. The input is consumed as
// (opcode, argument) byte pairs; the opcode byte's quotient by 7 is a
// sub-millisecond offset (0–252µs) added to relative schedules,
// postpones and bounded runs, so events and parked clocks can fall
// within microseconds of each other without sharing an instant. Its
// parity splits op 2 into cancel (even) and postpone (odd).
func FuzzEngineSchedule(f *testing.F) {
	f.Add([]byte{0, 10, 0, 5, 6, 0, 6, 0, 8, 20})
	f.Add([]byte{0, 3, 2, 0, 0, 3, 4, 0, 10, 0, 0, 1, 2, 1, 8, 255})
	f.Add([]byte{1, 200, 1, 100, 1, 0, 6, 0, 6, 0, 6, 0, 10, 0, 0, 7})
	f.Add([]byte{3, 0, 0, 9, 5, 0, 0, 9, 8, 50, 10, 0, 3, 0})
	f.Add([]byte{0, 1, 0, 1, 0, 1, 2, 0, 2, 1, 2, 2, 6, 0, 6, 0, 6, 0, 6, 0})
	// Far schedules (op 6, up to 51s ahead) interleaved with near ones
	// and steps.
	f.Add([]byte{6, 200, 0, 10, 6, 90, 0, 1, 3, 0, 4, 255, 4, 255, 3, 0})
	// Postpones (opcode 9): refused (before the queued time), accepted,
	// repeated on one handle, around a delay-line packet, and across a
	// bounded run that stops between the queued and the due time.
	f.Add([]byte{0, 10, 0, 20, 9, 0, 9, 30, 9, 41, 4, 15, 9, 60, 5, 1, 9, 5, 3, 0, 4, 255})
	// Resets (op 5, arg 0) with packets delivered, in flight and
	// orphaned (op 5, arg 3 mod 4), each followed by a replayed
	// schedule that reuses the reclaimed packets and slots.
	f.Add([]byte{0, 10, 5, 1, 5, 3, 5, 9, 4, 4, 5, 0, 0, 10, 5, 1, 5, 3, 5, 9, 4, 4, 5, 0, 0, 10, 5, 1, 4, 255})
	f.Add([]byte{6, 90, 0, 3, 5, 7, 5, 5, 9, 2, 3, 0, 5, 0, 6, 90, 0, 3, 5, 7, 5, 5, 9, 2, 4, 255})
	// Delay-line pushes (op 5, arg 1 or 2 mod 4; arg>>2 mod 4 more at
	// the same instant) on both lines, with schedules at the instants
	// the packets arrive, steps and runs that stop between two of a
	// line's packets, and resets that drop packets still in a line.
	f.Add([]byte{5, 13, 5, 2, 3, 0, 5, 1, 1, 0, 4, 1, 5, 6, 3, 0, 3, 0, 5, 0, 5, 9, 5, 14, 4, 255})
	f.Add([]byte{5, 1, 0, 0, 5, 5, 4, 0, 5, 2, 5, 1, 7, 0, 5, 10, 3, 0, 4, 90, 5, 0, 5, 2, 3, 0, 4, 255})
	// The same in a dense population: 66 far schedules fill the heap,
	// so line slots are re-keyed and sifted among them.
	dense := bytes.Repeat([]byte{6, 200}, 66)
	f.Add(append(dense, 5, 13, 5, 14, 3, 0, 4, 1, 5, 5, 3, 0, 5, 2, 4, 100, 5, 0, 5, 13, 4, 1, 3, 0))
	f.Fuzz(func(t *testing.T, data []byte) {
		m := newMirror(t)
		eng, ref := m.eng, m.ref
		var timers, refTimers []Timer
		// ran and rran log the id of every handler run: a handle's index
		// in the timer slices, or a packet's Seq. The first compared
		// entries agree.
		var ran, rran []int
		var pushed int64 // delay-line packets so far: packet k logs id -k
		compared := 0
		lastFire := time.Duration(-1)
		handler := func(id int) func() {
			return func() {
				now := eng.Now()
				if now < lastFire {
					t.Fatalf("fire order violated: event at %v after event at %v", now, lastFire)
				}
				lastFire = now
				ran = append(ran, id)
			}
		}
		logTo := func(log *[]int, id int) func() { return func() { *log = append(*log, id) } }
		sink := ReceiverFunc(func(p *Packet) {
			handler(int(p.Seq))()
			p.Release()
		})
		refSink := ReceiverFunc(func(p *Packet) {
			rran = append(rran, int(p.Seq))
			p.Release()
		})
		schedule := func(at time.Duration) {
			id := len(timers)
			timers = append(timers, eng.ScheduleAt(at, handler(id)))
			refTimers = append(refTimers, ref.ScheduleAt(at, logTo(&rran, id)))
		}

		// agree fails the fuzz run when either structure is unsound or
		// the engines have diverged in anything m.agree compares, or in
		// the handlers they ran.
		agree := func(ctx string) {
			m.agree(ctx)
			if len(ran) != len(rran) {
				t.Fatalf("%s: engine ran %d handlers, reference %d", ctx, len(ran), len(rran))
			}
			for ; compared < len(ran); compared++ {
				if i := compared; ran[i] != rran[i] {
					t.Fatalf("%s: handler %d: engine ran #%d, reference #%d", ctx, i, ran[i], rran[i])
				}
			}
		}

		for i := 0; i+1 < len(data); i += 2 {
			op, arg := data[i], data[i+1]
			sub := time.Duration(op/7) * 7 * time.Microsecond
			switch op % 7 {
			case 0: // relative schedule
				schedule(eng.Now() + time.Duration(arg)*time.Millisecond + sub)
			case 1: // absolute schedule, possibly in the past (clamped)
				schedule(time.Duration(arg) * 10 * time.Millisecond)
			case 2:
				if len(timers) == 0 {
					break
				}
				k := int(arg) % len(timers)
				if (op/7)%2 == 0 { // cancel an arbitrary previously issued handle
					timers[k].Cancel()
					refTimers[k].Cancel()
					break
				}
				// Postpone it, possibly to before its queued time, or
				// reschedule it once fired or cancelled, as callers do
				// when Postpone refuses.
				at := eng.Now() + time.Duration(arg)*time.Millisecond + sub
				if !timers[k].Postpone(at) {
					timers[k].Cancel()
					timers[k] = eng.ScheduleAt(at, handler(k))
				}
				refTimers[k].Cancel()
				refTimers[k] = ref.ScheduleAt(at, logTo(&rran, k))
			case 3: // single step
				m.step()
			case 4: // bounded run forward
				until := eng.Now() + time.Duration(arg)*time.Millisecond + sub
				m.run(until)
				// The reference would overshoot exactly as the engine
				// does, so Run's bound is checked against until.
				if lastFire > until || eng.Now() != until {
					t.Fatalf("Run(%v) overshot: last handler at %v, clock at %v", until, lastFire, eng.Now())
				}
			case 5:
				switch arg % 4 {
				case 0: // reset: pending events drop, handles go inert
					m.reset()
					ref = m.ref
					ran, rran, compared = ran[:0], rran[:0], 0
					lastFire = -1
				case 3: // orphaned packets, never released: only a reset takes them back
					eng.NewPacket()
					ref.NewPacket()
				default: // pooled packets down a delay line, numbered below the timers
					k := int(arg%4) - 1
					for n := 1 + int(arg>>2)%4; n > 0; n-- {
						pushed++
						m.push(k, -pushed, [2]Receiver{sink, refSink})
					}
				}
			case 6: // far schedule
				schedule(eng.Now() + time.Duration(arg)*200*time.Millisecond)
			}
			agree("after op")
		}

		// Drain: everything still pending must fire in order on both
		// engines, in lockstep, and the structures must end sound and
		// empty.
		m.drain()
		agree("after drain")

		// Cancelled or fired handles must all be inert now; cancelling
		// or postponing them again must not disturb anything.
		for _, tm := range timers {
			if tm.Active() {
				t.Fatal("timer reports active after full drain")
			}
			if tm.Postpone(eng.Now()) {
				t.Fatal("Postpone accepted an inert timer")
			}
			tm.Cancel()
		}
		if err := eng.verifyHeap(); err != nil {
			t.Fatalf("after stale cancels: %v", err)
		}
	})
}
