package sim

import (
	"testing"
	"time"
)

// FuzzEngineSchedule drives the engine through adversarial
// interleavings of schedule, cancel, step, run, reset, and pooled
// packet delivery, re-verifying the indexed-heap and timer-wheel
// structures after every operation and the (time, seq) fire order
// throughout. Every operation is mirrored onto a heap-pure shadow
// engine (wheelOff=true), so the hashed hierarchical wheel is
// fuzz-checked for exact pop-order equivalence against the reference
// heap. The input is consumed as (opcode, argument) byte pairs; the
// opcode byte's quotient by 7 is a sub-tick offset (0–252µs) added to
// relative schedules and bounded runs, so events and parked clocks can
// share a wheel tick without sharing an instant.
func FuzzEngineSchedule(f *testing.F) {
	f.Add([]byte{0, 10, 0, 5, 6, 0, 6, 0, 8, 20})
	f.Add([]byte{0, 3, 2, 0, 0, 3, 4, 0, 10, 0, 0, 1, 2, 1, 8, 255})
	f.Add([]byte{1, 200, 1, 100, 1, 0, 6, 0, 6, 0, 6, 0, 10, 0, 0, 7})
	f.Add([]byte{3, 0, 0, 9, 5, 0, 0, 9, 8, 50, 10, 0, 3, 0})
	f.Add([]byte{0, 1, 0, 1, 0, 1, 2, 0, 2, 1, 2, 2, 6, 0, 6, 0, 6, 0, 6, 0})
	// Far-horizon schedules (op 6) that overflow the wheel into the
	// heap, interleaved with near ones and steps across the boundary.
	f.Add([]byte{6, 200, 0, 10, 6, 90, 0, 1, 3, 0, 4, 255, 4, 255, 3, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		m := newMirror(t)
		eng, shadow := m.eng, m.shadow
		var timers, shadowTimers []Timer
		lastFire := time.Duration(-1)
		fireCount, shadowFireCount := 0, 0
		handler := func() {
			now := eng.Now()
			if now < lastFire {
				t.Fatalf("fire order violated: event at %v after event at %v", now, lastFire)
			}
			lastFire = now
			fireCount++
		}
		shadowHandler := func() { shadowFireCount++ }
		sink := ReceiverFunc(func(p *Packet) {
			handler()
			p.Release()
		})
		shadowSink := ReceiverFunc(func(p *Packet) {
			shadowHandler()
			p.Release()
		})

		// agree fails the fuzz run when either structure is unsound or
		// the wheel engine and the heap-pure shadow have diverged in
		// fire order, clock, pending depth or handlers run — the
		// observable surface of pop order.
		agree := func(ctx string) {
			m.agree(ctx)
			if fireCount != shadowFireCount {
				t.Fatalf("%s: wheel engine ran %d handlers, heap shadow %d", ctx, fireCount, shadowFireCount)
			}
		}

		for i := 0; i+1 < len(data); i += 2 {
			op, arg := data[i], data[i+1]
			sub := time.Duration(op/7) * 7 * time.Microsecond
			switch op % 7 {
			case 0: // relative schedule
				d := time.Duration(arg)*time.Millisecond + sub
				timers = append(timers, eng.Schedule(d, handler))
				shadowTimers = append(shadowTimers, shadow.Schedule(d, shadowHandler))
			case 1: // absolute schedule, possibly in the past (clamped)
				timers = append(timers, eng.ScheduleAt(time.Duration(arg)*10*time.Millisecond, handler))
				shadowTimers = append(shadowTimers, shadow.ScheduleAt(time.Duration(arg)*10*time.Millisecond, shadowHandler))
			case 2: // cancel an arbitrary previously issued handle
				if len(timers) > 0 {
					k := int(arg) % len(timers)
					timers[k].Cancel()
					shadowTimers[k].Cancel()
				}
			case 3: // single step
				eng.Step()
				shadow.Step()
			case 4: // bounded run forward
				until := eng.Now() + time.Duration(arg)*time.Millisecond + sub
				eng.Run(until)
				shadow.Run(until)
			case 5:
				switch arg % 4 {
				case 0: // reset: pending events drop, handles go inert
					m.reset()
					lastFire = -1
				default: // pooled packet delivery through the event queue
					p := eng.NewPacket()
					p.Dest = sink
					timers = append(timers, eng.SchedulePacket(time.Duration(arg)*time.Millisecond, p))
					sp := shadow.NewPacket()
					sp.Dest = shadowSink
					shadowTimers = append(shadowTimers, shadow.SchedulePacket(time.Duration(arg)*time.Millisecond, sp))
				}
			case 6: // far-horizon schedule: overflows the wheel into the heap
				d := time.Duration(arg) * 200 * time.Millisecond
				timers = append(timers, eng.Schedule(d, handler))
				shadowTimers = append(shadowTimers, shadow.Schedule(d, shadowHandler))
			}
			agree("after op")
		}

		// Drain: everything still pending must fire in order on both
		// engines, in lockstep, and the structures must end sound and
		// empty.
		m.drain()
		agree("after drain")

		// Cancelled or fired handles must all be inert now; cancelling
		// them again must not disturb anything.
		for _, tm := range timers {
			if tm.Active() {
				t.Fatal("timer reports active after full drain")
			}
			tm.Cancel()
		}
		if err := eng.verifyHeap(); err != nil {
			t.Fatalf("after stale cancels: %v", err)
		}
	})
}
