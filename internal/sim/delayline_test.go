package sim

import (
	"math/rand"
	"testing"
	"time"
)

// TestDelayLineEquivalence drives delay-line pushes on two lines,
// interleaved with timers at the instants their packets arrive,
// cancels, postpones, steps, bounded runs and resets, against a
// reference engine that schedules one event per packet: schedule and
// fire streams, processed counts and the events still to fire must
// stay identical, with the heap sparse and dense.
func TestDelayLineEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	m := newMirror(t)
	sink := ReceiverFunc(func(p *Packet) { p.Release() })
	sinks := [2]Receiver{sink, sink}
	var seq int64
	for round := 0; round < 3000; round++ {
		switch rng.Intn(12) {
		case 0, 1, 2: // a burst down one line
			k := rng.Intn(len(lineDelays))
			for n := 1 + rng.Intn(4); n > 0; n-- {
				seq++
				m.push(k, seq, sinks)
			}
		case 3: // a timer at the instant a line's last packet arrives
			m.schedule(lineDelays[rng.Intn(len(lineDelays))])
		case 4:
			m.schedule(time.Duration(rng.Intn(int(100 * time.Millisecond))))
		case 5:
			if len(m.tm) > 0 {
				m.cancel(rng.Intn(len(m.tm)))
			}
		case 6:
			if len(m.tm) > 0 {
				m.postpone(rng.Intn(len(m.tm)), m.eng.Now()+time.Duration(rng.Intn(int(100*time.Millisecond))))
			}
		case 7, 8:
			m.step()
		case 9:
			m.run(m.eng.Now() + time.Duration(rng.Intn(int(lineDelays[0]*4))))
		case 10:
			m.run(m.eng.Now() + time.Duration(rng.Intn(int(lineDelays[1]))))
		case 11:
			switch rng.Intn(20) {
			case 0: // drop everything, packets in lines included
				m.reset()
			case 1: // a dense population the line slots sift through
				m.dense()
			}
		}
		m.agree("after round")
	}
	m.drain()
}

// TestLinkDelayIsFixedAtBuild pins the choice that keeps every line in
// order: a link's propagation delay is the one it was built with (a
// negative one is zero), so each packet arrives exactly that long
// after it finished serializing, in the order it was sent, and after
// the events already due at its instant.
func TestLinkDelayIsFixedAtBuild(t *testing.T) {
	for _, tc := range []struct{ built, want time.Duration }{
		{7 * time.Millisecond, 7 * time.Millisecond},
		{-3 * time.Millisecond, 0},
	} {
		eng := &Engine{}
		link := NewLink(eng, "l", 8e6, tc.built, &testQueue{})
		if link.Delay() != tc.want {
			t.Fatalf("built with %v: Delay() = %v, want %v", tc.built, link.Delay(), tc.want)
		}
		var log []int64
		dest := ReceiverFunc(func(p *Packet) {
			// 1000 B at 8 Mbit/s serializes in 1ms.
			if want := time.Duration(p.Seq+1)*time.Millisecond + tc.want; eng.Now() != want {
				t.Errorf("delay %v: packet %d arrived at %v, want %v", tc.want, p.Seq, eng.Now(), want)
			}
			log = append(log, p.Seq)
		})
		for i := int64(0); i < 5; i++ {
			// A timer due at the instant packet i arrives was scheduled
			// before the packet's push, so it runs first.
			eng.ScheduleAt(time.Duration(i+1)*time.Millisecond+tc.want, func() { log = append(log, -1) })
			Inject(&Packet{Seq: i, Size: 1000, Path: []*Link{link}, Dest: dest})
		}
		eng.Run(time.Second)
		want := []int64{-1, 0, -1, 1, -1, 2, -1, 3, -1, 4}
		if len(log) != len(want) {
			t.Fatalf("delay %v: fired %v, want %v", tc.want, log, want)
		}
		for i := range want {
			if log[i] != want[i] {
				t.Fatalf("delay %v: fired %v, want %v", tc.want, log, want)
			}
		}
	}
}

// TestDelayLineResetReusesRings checks that a line's ring is the
// engine's: once a run has grown it, runs on the reset engine push,
// deliver and recycle without allocating.
func TestDelayLineResetReusesRings(t *testing.T) {
	eng := &Engine{}
	sink := ReceiverFunc(func(p *Packet) { p.Release() })
	cycle := func() {
		eng.Reset()
		line := eng.DelayLine(5 * time.Millisecond)
		for i := 0; i < 100; i++ {
			p := eng.NewPacket()
			p.Dest = sink
			line.Push(p)
			if i%10 == 9 {
				eng.Run(eng.Now() + time.Millisecond)
			}
		}
		if eng.Pending() != 100-int(eng.Processed) {
			t.Fatalf("Pending() = %d with %d of 100 packets delivered", eng.Pending(), eng.Processed)
		}
		for eng.Step() {
		}
	}
	cycle()
	if allocs := testing.AllocsPerRun(20, cycle); allocs > 0 {
		t.Fatalf("a run on the reset engine allocates %.1f times, want 0", allocs)
	}
}

// TestEngineKeepsOneLinePerDelay checks that every owner of one delay
// shares the engine's line for it (a negative delay is zero's), and
// that Reset takes the lines back with the packets in them.
func TestEngineKeepsOneLinePerDelay(t *testing.T) {
	eng := &Engine{}
	a, b := eng.DelayLine(5*time.Millisecond), eng.DelayLine(6*time.Millisecond)
	if a == b || eng.DelayLine(5*time.Millisecond) != a || eng.DelayLine(-time.Second) != eng.DelayLine(0) {
		t.Fatal("want one line per delay, negative delays sharing zero's")
	}
	for _, l := range []*DelayLine{a, b, a} {
		l.Push(eng.NewPacket())
	}
	if eng.Pending() != 3 {
		t.Fatalf("Pending() = %d with 3 packets in lines, want 3", eng.Pending())
	}
	eng.Reset()
	if eng.Pending() != 0 {
		t.Fatalf("Reset left %d pending", eng.Pending())
	}
	if err := eng.verifyHeap(); err != nil {
		t.Fatal(err)
	}
	if l := eng.DelayLine(6 * time.Millisecond); l.n != 0 || l.delay != 6*time.Millisecond {
		t.Fatalf("line after Reset holds %d packets at delay %v, want an empty 6ms line", l.n, l.delay)
	}
}
