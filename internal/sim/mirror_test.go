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

// mirror drives an engine and a reference engine through the same
// calls. Postpone on the engine is Cancel + ScheduleAt on the
// reference, a delay-line push is one event per packet there, and
// reset replaces the reference with a new engine where the engine is
// Reset. agree fails the test as soon as the two differ in anything an
// observer can see — schedule stream, fire order, clock, processed
// count, the events still to fire — or either engine's structure is
// unsound, or either engine's packet pool hands out a live packet.
type mirror struct {
	t            testing.TB
	eng, ref     *Engine
	log, rlog    keyLog
	sched, fired int // log entries already compared
	tm, rtm      []Timer
	// lines are the engine's delay lines, one per lineDelays entry.
	lines [len(lineDelays)]*DelayLine
}

// lineDelays are the mirror's delay lines' fixed delays: a fraction of
// a millisecond, and most of the spread the tests schedule over.
var lineDelays = [...]time.Duration{300 * time.Microsecond, 90 * time.Millisecond}

func newMirror(t testing.TB) *mirror {
	m := &mirror{t: t, eng: &Engine{}, ref: &Engine{}}
	m.eng.SetHook(&m.log)
	m.ref.SetHook(&m.rlog)
	m.initLines()
	return m
}

func (m *mirror) initLines() {
	for k, d := range lineDelays {
		m.lines[k] = m.eng.DelayLine(d)
	}
}

// push sends a pooled packet numbered seq down delay line k on the
// engine, and as one event per packet on the reference; sinks are the
// two engines' destinations, in that order.
func (m *mirror) push(k int, seq int64, sinks [2]Receiver) {
	p := m.eng.NewPacket()
	p.Seq, p.Dest = seq, sinks[0]
	m.lines[k].Push(p)
	p = m.ref.NewPacket()
	p.Seq, p.Dest = seq, sinks[1]
	schedulePacket(m.ref, lineDelays[k], p)
}

// livePending is Pending less the cancelled events still queued: the
// events and delay-line packets that will fire, which an engine that
// cancels and reschedules instead of postponing, and schedules one
// event per packet instead of using lines, must agree on.
func livePending(e *Engine) int {
	n := e.Pending()
	for _, node := range e.heap {
		if e.slots[node.slot].dueSeq == cancelledSeq {
			n--
		}
	}
	return n
}

func (m *mirror) schedule(d time.Duration) {
	m.tm = append(m.tm, m.eng.Schedule(d, func() {}))
	m.rtm = append(m.rtm, m.ref.Schedule(d, func() {}))
}

// dense schedules 64 events spread over the next 96ms, so the heap
// holds a population that the delay lines' slots and postponed events
// sift through.
func (m *mirror) dense() {
	for i := 0; i < 64; i++ {
		m.schedule(time.Duration(i) * 1500 * time.Microsecond)
	}
}

func (m *mirror) cancel(k int) {
	m.tm[k].Cancel()
	m.rtm[k].Cancel()
}

// postpone moves handle k to at the way a caller of Postpone does,
// rescheduling when Postpone refuses; the reference engine always
// cancels and reschedules.
func (m *mirror) postpone(k int, at time.Duration) {
	if !m.tm[k].Postpone(at) {
		m.tm[k].Cancel()
		m.tm[k] = m.eng.ScheduleAt(at, func() {})
	}
	m.rtm[k].Cancel()
	m.rtm[k] = m.ref.ScheduleAt(at, func() {})
}

func (m *mirror) run(until time.Duration) {
	m.eng.Run(until)
	m.ref.Run(until)
}

func (m *mirror) step() bool {
	a, b := m.eng.Step(), m.ref.Step()
	if a != b {
		m.t.Fatalf("engine step=%v, reference step=%v", a, b)
	}
	return a
}

// reset Resets the engine, which must then take back every packet it
// handed out, and gives the reference a new engine: after it, the
// reset engine must behave as a new one does.
func (m *mirror) reset() {
	m.eng.Reset()
	m.initLines()
	m.ref = &Engine{}
	m.rlog = keyLog{}
	m.ref.SetHook(&m.rlog)
	if len(m.log.live) != 0 {
		m.t.Fatalf("Reset left %d packets live", len(m.log.live))
	}
	m.log.reset()
	m.sched, m.fired = 0, 0
}

func (m *mirror) agree(ctx string) {
	for _, e := range []struct {
		name string
		eng  *Engine
		log  *keyLog
	}{{"engine", m.eng, &m.log}, {"reference", m.ref, &m.rlog}} {
		if err := e.eng.verifyHeap(); err != nil {
			m.t.Fatalf("%s: %s unsound: %v", ctx, e.name, err)
		}
		if e.log.bad != "" {
			m.t.Fatalf("%s: %s: %s", ctx, e.name, e.log.bad)
		}
	}
	m.sched = m.sameKeys(ctx, "scheduled", m.sched, m.log.sched, m.rlog.sched)
	m.fired = m.sameKeys(ctx, "fired", m.fired, m.log.fired, m.rlog.fired)
	if m.eng.Now() != m.ref.Now() {
		m.t.Fatalf("%s: engine at %v, reference at %v", ctx, m.eng.Now(), m.ref.Now())
	}
	if m.eng.Processed != m.ref.Processed {
		m.t.Fatalf("%s: processed %d, reference %d", ctx, m.eng.Processed, m.ref.Processed)
	}
	if a, b := livePending(m.eng), livePending(m.ref); a != b {
		m.t.Fatalf("%s: events still to fire: engine %d, reference %d", ctx, a, b)
	}
}

// sameKeys fails the test unless the two engines' logs are equal; the
// first from entries were compared before. It returns the new count.
func (m *mirror) sameKeys(ctx, what string, from int, eng, ref []evKey) int {
	if len(eng) != len(ref) {
		m.t.Fatalf("%s: engine %s %d events, reference %d", ctx, what, len(eng), len(ref))
	}
	for ; from < len(eng); from++ {
		if eng[from] != ref[from] {
			m.t.Fatalf("%s: %s %d: engine %v, reference %v", ctx, what, from, eng[from], ref[from])
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

// TestEngineMatchesReference drives the engine and the reference
// through an identical randomized workload of near, far and
// same-instant schedules, cancels, postpones, delay-line bursts, steps
// and bounded runs, and requires the schedule and fire streams to
// match exactly: Postpone must be indistinguishable from cancelling
// and rescheduling, and a delay line from one event per packet.
func TestEngineMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := newMirror(t)
	sink := ReceiverFunc(func(p *Packet) { p.Release() })
	sinks := [2]Receiver{sink, sink}
	var seq int64
	for round := 0; round < 2000; round++ {
		switch rng.Intn(12) {
		case 0, 1, 2: // within 67ms
			m.schedule(time.Duration(rng.Intn(int(67 * time.Millisecond))))
		case 3, 4: // within 17s
			m.schedule(time.Duration(rng.Intn(int(17 * time.Second))))
		case 5: // far
			m.schedule(17*time.Second + time.Duration(rng.Intn(1e9)))
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
		case 10: // move a random handle, at times before its queued time too
			if len(m.tm) > 0 {
				m.postpone(rng.Intn(len(m.tm)), m.eng.Now()+time.Duration(rng.Intn(int(17*time.Second))))
			}
		case 11: // a burst down one delay line
			k := rng.Intn(len(lineDelays))
			for n := 1 + rng.Intn(4); n > 0; n-- {
				seq++
				m.push(k, seq, sinks)
			}
		}
		m.agree("after round")
	}
	m.drain()
}
