package sim

import (
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// evKey is an event's (at, seq) key as the engine's Hook reports it.
type evKey struct {
	at  time.Duration
	seq int64
}

// keyLog is a Hook that records the key of every event scheduled and
// every event fired. Engines fed the same schedule calls number their
// events identically, so equal logs mean equal schedule streams and
// equal fire order, ties included. It also tracks the pooled packets
// handed out and not yet released, and notes the first packet handed
// out twice while live or released while not live.
type keyLog struct {
	sched, fired []evKey
	live         map[*Packet]bool
	bad          string
}

func (l *keyLog) OnSchedule(at time.Duration, seq int64) { l.sched = append(l.sched, evKey{at, seq}) }
func (l *keyLog) OnFire(at time.Duration, seq int64)     { l.fired = append(l.fired, evKey{at, seq}) }

func (l *keyLog) OnAlloc(p *Packet) {
	if l.live == nil {
		l.live = map[*Packet]bool{}
	}
	if l.live[p] && l.bad == "" {
		l.bad = fmt.Sprintf("packet %p handed out twice while live", p)
	}
	l.live[p] = true
}

func (l *keyLog) OnFree(p *Packet) {
	if !l.live[p] && l.bad == "" {
		l.bad = fmt.Sprintf("packet %p released while not live", p)
	}
	delete(l.live, p)
}

func (l *keyLog) reset() { l.sched, l.fired = l.sched[:0], l.fired[:0] }

// mirror drives a wheel-enabled engine, a heap-pure shadow and a
// reference engine through the same calls. Postpone on the first two
// is Cancel + ScheduleAt on the reference, a delay-line push is one
// event per packet there, and reset replaces the reference with a new
// engine where the other two are Reset. agree fails the test as soon
// as the engines differ in anything an observer can see — schedule
// stream, fire order, clock, processed count, the events still to
// fire, and between the first two the pending depth — or any engine's
// structure is unsound, or any engine's packet pool hands out a live
// packet.
type mirror struct {
	t                testing.TB
	eng, shadow, ref *Engine
	log, slog, rlog  keyLog
	sched, fired     int // log entries already compared
	tm, stm, rtm     []Timer
	// lines and slines are the wheel engine's and the shadow's delay
	// lines, one per lineDelays entry.
	lines, slines [len(lineDelays)]*DelayLine
}

// lineDelays are the mirror's delay lines' fixed delays: just over a
// wheel tick, and far enough out to stage at the wheel's level 1.
var lineDelays = [...]time.Duration{300 * time.Microsecond, 90 * time.Millisecond}

func newMirror(t testing.TB) *mirror {
	m := &mirror{t: t, eng: &Engine{}, shadow: &Engine{wheelOff: true}, ref: &Engine{}}
	m.eng.SetHook(&m.log)
	m.shadow.SetHook(&m.slog)
	m.ref.SetHook(&m.rlog)
	m.initLines()
	return m
}

func (m *mirror) initLines() {
	for k, d := range lineDelays {
		m.lines[k] = m.eng.DelayLine(d)
		m.slines[k] = m.shadow.DelayLine(d)
	}
}

// push sends a pooled packet numbered seq down delay line k on the
// wheel engine and the shadow, and as one event per packet on the
// reference; sinks are the three engines' destinations, in that order.
func (m *mirror) push(k int, seq int64, sinks [3]Receiver) {
	for i, e := range [...]*Engine{m.eng, m.shadow, m.ref} {
		p := e.NewPacket()
		p.Seq, p.Dest = seq, sinks[i]
		switch i {
		case 0:
			m.lines[k].Push(p)
		case 1:
			m.slines[k].Push(p)
		default:
			schedulePacket(e, lineDelays[k], p)
		}
	}
}

// livePending is Pending less the cancelled events still queued: the
// events and delay-line packets that will fire, which an engine that
// cancels and reschedules instead of postponing, and schedules one
// event per packet instead of using lines, must agree on.
func livePending(e *Engine) int {
	n := e.Pending()
	dead := func(slot int32) {
		if e.slots[slot].dueSeq == cancelledSeq {
			n--
		}
	}
	for _, node := range e.heap {
		dead(node.slot)
	}
	for l := range e.wheel.levels {
		for _, head := range e.wheel.levels[l].head {
			for i := head; i != 0; i = e.slots[i-1].next {
				dead(i - 1)
			}
		}
	}
	return n
}

func (m *mirror) schedule(d time.Duration) {
	m.tm = append(m.tm, m.eng.Schedule(d, func() {}))
	m.stm = append(m.stm, m.shadow.Schedule(d, func() {}))
	m.rtm = append(m.rtm, m.ref.Schedule(d, func() {}))
}

// at schedules an event at an absolute time.
func (m *mirror) at(at time.Duration) { m.schedule(at - m.eng.Now()) }

// engage fills the heap to the population at which the wheel starts
// staging, with events beyond the wheel horizon.
func (m *mirror) engage() {
	for i := 0; i < wheelMinPop; i++ {
		m.schedule(2*wheelTickDur*wheelSlots*wheelSlots + time.Duration(i)*time.Second)
	}
}

func (m *mirror) cancel(k int) {
	m.tm[k].Cancel()
	m.stm[k].Cancel()
	m.rtm[k].Cancel()
}

// postpone moves handle k to at the way a caller of Postpone does,
// rescheduling when Postpone refuses; the reference engine always
// cancels and reschedules.
func (m *mirror) postpone(k int, at time.Duration) {
	ok := m.tm[k].Postpone(at)
	if sok := m.stm[k].Postpone(at); sok != ok {
		m.t.Fatalf("Postpone(%v): wheel engine %v, heap shadow %v", at, ok, sok)
	}
	if !ok {
		m.tm[k].Cancel()
		m.tm[k] = m.eng.ScheduleAt(at, func() {})
		m.stm[k].Cancel()
		m.stm[k] = m.shadow.ScheduleAt(at, func() {})
	}
	m.rtm[k].Cancel()
	m.rtm[k] = m.ref.ScheduleAt(at, func() {})
}

func (m *mirror) run(until time.Duration) {
	m.eng.Run(until)
	m.shadow.Run(until)
	m.ref.Run(until)
}

func (m *mirror) step() bool {
	a, b, c := m.eng.Step(), m.shadow.Step(), m.ref.Step()
	if a != b || a != c {
		m.t.Fatalf("wheel engine step=%v, heap shadow step=%v, reference step=%v", a, b, c)
	}
	return a
}

// reset Resets the wheel engine and the shadow, which must then take
// back every packet they handed out, and gives the reference a new
// engine: after it, the reset engines must behave as a new one does.
func (m *mirror) reset() {
	m.eng.Reset()
	m.shadow.Reset()
	m.initLines()
	m.ref = &Engine{}
	m.rlog = keyLog{}
	m.ref.SetHook(&m.rlog)
	for _, l := range []*keyLog{&m.log, &m.slog} {
		if len(l.live) != 0 {
			m.t.Fatalf("Reset left %d packets live", len(l.live))
		}
	}
	m.log.reset()
	m.slog.reset()
	m.sched, m.fired = 0, 0
}

func (m *mirror) agree(ctx string) {
	for _, e := range []struct {
		name string
		eng  *Engine
		log  *keyLog
	}{{"wheel engine", m.eng, &m.log}, {"heap shadow", m.shadow, &m.slog}, {"reference", m.ref, &m.rlog}} {
		if err := e.eng.verifyHeap(); err != nil {
			m.t.Fatalf("%s: %s unsound: %v", ctx, e.name, err)
		}
		if e.log.bad != "" {
			m.t.Fatalf("%s: %s: %s", ctx, e.name, e.log.bad)
		}
	}
	m.sched = m.sameKeys(ctx, "scheduled", m.sched, m.log.sched, m.slog.sched, m.rlog.sched)
	m.fired = m.sameKeys(ctx, "fired", m.fired, m.log.fired, m.slog.fired, m.rlog.fired)
	if m.eng.Now() != m.shadow.Now() || m.eng.Now() != m.ref.Now() {
		m.t.Fatalf("%s: wheel engine at %v, heap shadow at %v, reference at %v", ctx, m.eng.Now(), m.shadow.Now(), m.ref.Now())
	}
	if m.eng.Processed != m.shadow.Processed || m.eng.Processed != m.ref.Processed {
		m.t.Fatalf("%s: processed %d, heap shadow %d, reference %d", ctx, m.eng.Processed, m.shadow.Processed, m.ref.Processed)
	}
	if m.eng.Pending() != m.shadow.Pending() {
		m.t.Fatalf("%s: wheel engine pending %d, heap shadow pending %d", ctx, m.eng.Pending(), m.shadow.Pending())
	}
	if a, b, c := livePending(m.eng), livePending(m.shadow), livePending(m.ref); a != b || a != c {
		m.t.Fatalf("%s: events still to fire: wheel engine %d, heap shadow %d, reference %d", ctx, a, b, c)
	}
}

// sameKeys fails the test unless the three engines' logs are equal; the
// first from entries were compared before. It returns the new count.
func (m *mirror) sameKeys(ctx, what string, from int, eng, shadow, ref []evKey) int {
	if len(eng) != len(shadow) || len(eng) != len(ref) {
		m.t.Fatalf("%s: wheel engine %s %d events, heap shadow %d, reference %d", ctx, what, len(eng), len(shadow), len(ref))
	}
	for ; from < len(eng); from++ {
		if eng[from] != shadow[from] || eng[from] != ref[from] {
			m.t.Fatalf("%s: %s %d: wheel engine %v, heap shadow %v, reference %v", ctx, what, from, eng[from], shadow[from], ref[from])
		}
	}
	return from
}

func (m *mirror) drain() {
	for m.step() {
		m.agree("during drain")
	}
	m.agree("after drain")
	if m.eng.Pending() != 0 || m.ref.Pending() != 0 {
		m.t.Fatalf("drained engines still report %d and %d pending", m.eng.Pending(), m.ref.Pending())
	}
}

// TestWheelHeapEquivalence drives a wheel-enabled engine and a
// heap-pure shadow through an identical randomized workload of
// near/far/same-tick schedules, cancels, postpones and bounded runs,
// and requires the fire sequences to match exactly: the wheel must be
// observationally indistinguishable from the reference heap, and
// Postpone from cancelling and rescheduling.
func TestWheelHeapEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := newMirror(t)
	for round := 0; round < 2000; round++ {
		switch rng.Intn(11) {
		case 0, 1, 2: // sub-tick and level-0 range
			m.schedule(time.Duration(rng.Intn(int(wheelTickDur) * wheelSlots)))
		case 3, 4: // level-1 range
			m.schedule(time.Duration(rng.Intn(int(wheelTickDur) * wheelSlots * wheelSlots)))
		case 5: // beyond the wheel horizon: heap
			m.schedule(time.Duration(int(wheelTickDur)*wheelSlots*wheelSlots) + time.Duration(rng.Intn(1e9)))
		case 6: // same-instant burst: FIFO tie-break must hold
			for i := 0; i < 5; i++ {
				m.schedule(42 * time.Millisecond)
			}
		case 7: // cancel a random handle on both engines
			if len(m.tm) > 0 {
				m.cancel(rng.Intn(len(m.tm)))
			}
		case 8: // bounded run
			m.run(m.eng.Now() + time.Duration(rng.Intn(2e8)))
		case 9: // a few single steps
			for i := 0; i < 3; i++ {
				m.step()
			}
		case 10: // move a random handle, at times before its queued time
			if len(m.tm) > 0 {
				m.postpone(rng.Intn(len(m.tm)), m.eng.Now()+time.Duration(rng.Intn(int(wheelTickDur)*wheelSlots*wheelSlots)))
			}
		}
		m.agree("after round")
	}
	m.drain()
	if m.eng.Processed != m.shadow.Processed {
		t.Fatalf("processed diverged: %d vs %d", m.eng.Processed, m.shadow.Processed)
	}
}

// TestWheelRunParksInsideTick stops a bounded run between two events
// of one tick, staged at each level in turn: the clock then stands
// inside a tick whose bucket has been opened, and events scheduled
// into the rest of that tick must go to the heap beside the one still
// pending there, not back into the passed bucket.
func TestWheelRunParksInsideTick(t *testing.T) {
	m := newMirror(t)
	m.engage()
	for _, base := range []time.Duration{
		40 * wheelTickDur,                // level 0
		3*wheelSlots*wheelTickDur + 1000, // level 1, first tick of its span
	} {
		first, second := base+10*time.Microsecond, base+200*time.Microsecond
		m.at(first)
		m.at(second)
		m.at(base + 3*wheelTickDur)
		if m.eng.wheel.count != 3 {
			t.Fatalf("wheel holds %d events, want all 3 staged", m.eng.wheel.count)
		}
		m.run(base + 100*time.Microsecond)
		m.agree("parked inside the tick")
		if got := m.log.fired[len(m.log.fired)-1].seq; m.eng.Now() >= second || got != m.eng.seq-2 {
			t.Fatalf("run to %v fired event #%d, want only the tick's first (#%d)", m.eng.Now(), got, m.eng.seq-2)
		}
		m.schedule(50 * time.Microsecond)  // same tick, before the one pending
		m.schedule(150 * time.Microsecond) // same tick, after it
		m.schedule(0)
		m.schedule(wheelTickDur) // next tick: staged at distance 1
		m.agree("scheduled into the parked tick")
		m.run(base + 2*wheelTickDur)
		m.agree("ran past the tick")
	}
	m.drain()
}

// TestWheelCursorAheadOfClock opens a level-1 bucket while the heap is
// empty and the clock is thousands of ticks earlier. The cursor then
// stands ahead of the clock, and an event scheduled between the two
// must go to the heap: the buckets for its tick have been passed.
func TestWheelCursorAheadOfClock(t *testing.T) {
	m := newMirror(t)
	for i := 0; i < wheelMinPop; i++ {
		m.schedule(0)
	}
	m.schedule(time.Second)     // level 1
	m.schedule(5 * time.Second) // level 1, keeps the wheel engaged
	for i := 0; i < wheelMinPop; i++ {
		m.step()
	}
	if len(m.eng.heap) != 0 || m.eng.wheel.count != 2 {
		t.Fatalf("want an empty heap and 2 staged events, have %d and %d", len(m.eng.heap), m.eng.wheel.count)
	}
	m.run(10 * time.Millisecond) // peeks: opens the 1s event's buckets, fires nothing
	m.agree("after the peek")
	if ahead := m.eng.wheel.cur - wheelTick(m.eng.Now()); ahead < 1000 {
		t.Fatalf("cursor is %d ticks ahead of the clock, want the 1s bucket opened (>1000)", ahead)
	}
	staged := m.eng.wheel.count
	m.at(500 * time.Millisecond)            // between clock and cursor
	m.at(time.Second - time.Microsecond)    // the cursor's own tick, before the opened event
	m.at(time.Second + 10*time.Microsecond) // the cursor's own tick, after it
	if m.eng.wheel.count != staged {
		t.Fatalf("an event at or behind the cursor was staged (%d -> %d)", staged, m.eng.wheel.count)
	}
	m.at(time.Second + 10*time.Millisecond) // ahead of the cursor: level 0
	m.at(3 * time.Second)                   // level 1
	if m.eng.wheel.count != staged+2 {
		t.Fatalf("events ahead of the cursor were not staged (%d -> %d)", staged, m.eng.wheel.count)
	}
	m.agree("scheduled around the cursor")
	m.drain()
}

// TestWheelResetRewindsCursor checks that Reset takes the cursor back
// with the clock: after a run has advanced it, a post-reset
// near-future event is staged again and fires in order.
func TestWheelResetRewindsCursor(t *testing.T) {
	m := newMirror(t)
	m.engage()
	m.schedule(2 * time.Second)
	m.schedule(3 * time.Second)
	m.schedule(3500 * time.Millisecond) // a later level-1 bucket: stays staged
	m.run(2500 * time.Millisecond)
	if m.eng.wheel.cur == 0 || m.eng.wheel.count != 1 {
		t.Fatalf("cursor %d, %d staged: want an advanced cursor and one staged event", m.eng.wheel.cur, m.eng.wheel.count)
	}
	m.reset()
	m.agree("after reset")
	if w := &m.eng.wheel; w.cur != 0 || w.next != 0 || w.count != 0 {
		t.Fatalf("Reset left cursor %d, next %v, count %d", w.cur, w.next, w.count)
	}
	m.engage()
	m.schedule(time.Millisecond)
	m.schedule(time.Second)
	if m.eng.wheel.count != 2 {
		t.Fatalf("post-reset near-future events not staged: wheel holds %d, want 2", m.eng.wheel.count)
	}
	m.agree("rescheduled")
	m.run(time.Second)
	m.agree("ran")
	if n := len(m.log.fired); n != 2 {
		t.Fatalf("%d events fired after the reset, want 2", n)
	}
	m.drain()
}

// TestWheelLevelRouting checks the per-timer wheel/heap split: heap
// below the small-population threshold, then level-0 for sub-horizon
// ticks, level-1 up to the full horizon, heap beyond.
func TestWheelLevelRouting(t *testing.T) {
	eng := &Engine{}
	l0Horizon := wheelTickDur * wheelSlots
	l1Horizon := wheelTickDur * wheelSlots * wheelSlots

	// Below wheelMinPop everything stays in the heap, near or not.
	eng.Schedule(time.Millisecond, func() {})
	if eng.wheel.count != 0 {
		t.Fatalf("sparse engine put %d events in the wheel, want 0", eng.wheel.count)
	}
	// Fill past the threshold with far-future events (heap residents).
	for i := 0; i < wheelMinPop; i++ {
		eng.Schedule(2*l1Horizon+time.Duration(i)*time.Second, func() {})
	}
	heapOnly := len(eng.heap)

	eng.Schedule(l0Horizon-wheelTickDur, func() {}) // level 0
	eng.Schedule(l0Horizon, func() {})              // level 1
	eng.Schedule(l1Horizon-wheelTickDur, func() {}) // level 1
	eng.Schedule(l1Horizon, func() {})              // past the horizon: heap
	if eng.wheel.count != 3 {
		t.Fatalf("wheel holds %d events, want 3", eng.wheel.count)
	}
	if len(eng.heap) != heapOnly+1 {
		t.Fatalf("heap holds %d events, want %d", len(eng.heap), heapOnly+1)
	}
	if eng.Pending() != heapOnly+4 {
		t.Fatalf("Pending() = %d, want %d", eng.Pending(), heapOnly+4)
	}
	if err := eng.verifyHeap(); err != nil {
		t.Fatal(err)
	}

	// The first five fires must interleave wheel and heap residents in
	// schedule-time order.
	want := []time.Duration{
		time.Millisecond,
		l0Horizon - wheelTickDur, l0Horizon,
		l1Horizon - wheelTickDur, l1Horizon,
	}
	for i, w := range want {
		if !eng.Step() {
			t.Fatalf("engine drained after %d events", i)
		}
		if eng.Now() != w {
			t.Fatalf("fire %d at %v, want %v", i, eng.Now(), w)
		}
	}
}

// TestWheelResetReclaimsSlots checks Reset drains wheel-resident
// events and their slots, leaving stale Timer handles inert.
func TestWheelResetReclaimsSlots(t *testing.T) {
	eng := &Engine{}
	var tms []Timer
	for i := 0; i < 100; i++ {
		tms = append(tms, eng.Schedule(time.Duration(i)*time.Millisecond, func() { t.Fatal("dropped event fired") }))
	}
	eng.Reset()
	if eng.Pending() != 0 || eng.wheel.count != 0 {
		t.Fatalf("Reset left %d pending (%d in wheel)", eng.Pending(), eng.wheel.count)
	}
	if err := eng.verifyHeap(); err != nil {
		t.Fatal(err)
	}
	fired := false
	eng.Schedule(time.Millisecond, func() { fired = true })
	for _, tm := range tms {
		tm.Cancel() // stale: must not touch the new event
	}
	for eng.Step() {
	}
	if !fired {
		t.Fatal("post-reset event was disturbed by a stale cancel")
	}
}

// TestWheelSteadyStateAllocs checks that the dense-timer scheduling
// path stays allocation-free once the slot table and the heap have
// grown to the population: staging itself owns no storage.
func TestWheelSteadyStateAllocs(t *testing.T) {
	eng := &Engine{}
	fn := func() {}
	cycle := func() {
		for i := 0; i < 4*wheelMinPop; i++ {
			eng.Schedule(time.Duration(i)*300*time.Microsecond, fn)
		}
		for eng.Step() {
		}
	}
	cycle()
	allocs := testing.AllocsPerRun(100, cycle)
	if allocs > 0 {
		t.Fatalf("steady-state wheel scheduling allocates %.1f times per cycle, want 0", allocs)
	}
}
