package sim

import (
	"testing"
	"time"
)

// testQueue is a minimal unbounded FIFO qdisc for link tests. It
// drains by head index (not by reslicing the base forward) so a
// steady enqueue/dequeue cycle reuses one backing array instead of
// creeping through memory — the allocs assertion tests depend on it.
type testQueue struct {
	q     []*Packet
	head  int
	bytes int
}

func (t *testQueue) Enqueue(p *Packet, _ time.Duration) bool {
	t.q = append(t.q, p)
	t.bytes += p.Size
	return true
}

func (t *testQueue) Dequeue(_ time.Duration) (*Packet, time.Duration) {
	if t.head == len(t.q) {
		return nil, 0
	}
	p := t.q[t.head]
	t.q[t.head] = nil
	t.head++
	if t.head == len(t.q) {
		t.q = t.q[:0]
		t.head = 0
	}
	t.bytes -= p.Size
	return p, 0
}

func (t *testQueue) Len() int   { return len(t.q) - t.head }
func (t *testQueue) Bytes() int { return t.bytes }

func TestLinkSerializationTiming(t *testing.T) {
	eng := &Engine{}
	// 8 Mbit/s: a 1000-byte packet takes exactly 1ms, plus 5ms delay.
	link := NewLink(eng, "l", 8e6, 5*time.Millisecond, &testQueue{})
	var deliveredAt time.Duration
	p := &Packet{Size: 1000, Path: []*Link{link}, Dest: ReceiverFunc(func(*Packet) {
		deliveredAt = eng.Now()
	})}
	Inject(p)
	eng.Run(time.Second)
	want := 6 * time.Millisecond
	if deliveredAt != want {
		t.Errorf("delivered at %v, want %v", deliveredAt, want)
	}
}

func TestLinkBackToBackPackets(t *testing.T) {
	eng := &Engine{}
	link := NewLink(eng, "l", 8e6, 0, &testQueue{})
	var times []time.Duration
	dest := ReceiverFunc(func(*Packet) { times = append(times, eng.Now()) })
	for i := 0; i < 3; i++ {
		Inject(&Packet{Size: 1000, Path: []*Link{link}, Dest: dest, Seq: int64(i)})
	}
	eng.Run(time.Second)
	if len(times) != 3 {
		t.Fatalf("delivered %d", len(times))
	}
	// Serialized back to back: 1ms, 2ms, 3ms.
	for i, want := range []time.Duration{1, 2, 3} {
		if times[i] != want*time.Millisecond {
			t.Errorf("packet %d at %v, want %vms", i, times[i], want)
		}
	}
}

func TestLinkStatsAndUtilization(t *testing.T) {
	eng := &Engine{}
	link := NewLink(eng, "l", 8e6, 0, &testQueue{})
	done := 0
	dest := ReceiverFunc(func(*Packet) { done++ })
	for i := 0; i < 5; i++ {
		Inject(&Packet{Size: 1000, Path: []*Link{link}, Dest: dest})
	}
	eng.Run(10 * time.Millisecond)
	st := link.Stats()
	if st.SentPackets != 5 || st.SentBytes != 5000 || st.EnqueuedPackets != 5 {
		t.Errorf("stats = %+v", st)
	}
	// 5ms busy out of 10ms.
	if u := link.Utilization(10 * time.Millisecond); u < 0.49 || u > 0.51 {
		t.Errorf("utilization = %v, want ~0.5", u)
	}
}

func TestLinkMultiHopPath(t *testing.T) {
	eng := &Engine{}
	l1 := NewLink(eng, "l1", 8e6, 2*time.Millisecond, &testQueue{})
	l2 := NewLink(eng, "l2", 8e6, 3*time.Millisecond, &testQueue{})
	var at time.Duration
	p := &Packet{Size: 1000, Path: []*Link{l1, l2}, Dest: ReceiverFunc(func(*Packet) { at = eng.Now() })}
	Inject(p)
	eng.Run(time.Second)
	// 1ms tx + 2ms prop + 1ms tx + 3ms prop = 7ms.
	if at != 7*time.Millisecond {
		t.Errorf("delivered at %v, want 7ms", at)
	}
	if l1.Stats().SentPackets != 1 || l2.Stats().SentPackets != 1 {
		t.Error("both links should have forwarded the packet")
	}
}

func TestLinkCountsRefusedPackets(t *testing.T) {
	eng := &Engine{}
	pc := countPool(eng)
	link := NewLink(eng, "l", 8e6, 0, &rejectQueue{}) // a qdisc that rejects everything
	p := eng.NewPacket()
	p.Size, p.Path = 1000, []*Link{link}
	Inject(p)
	eng.Run(time.Millisecond)
	if st := link.Stats(); st.DroppedPackets != 1 || st.EnqueuedPackets != 0 || st.SentPackets != 0 {
		t.Errorf("stats = %+v, want one drop and nothing forwarded", st)
	}
	if pc.frees != 1 {
		t.Errorf("the refused packet was released %d times, want 1", pc.frees)
	}
}

type rejectQueue struct{ testQueue }

func (r *rejectQueue) Enqueue(*Packet, time.Duration) bool { return false }

func TestLinkPanicsOnBadConfig(t *testing.T) {
	eng := &Engine{}
	assertPanics(t, func() { NewLink(eng, "l", 0, 0, &testQueue{}) })
	assertPanics(t, func() { NewLink(eng, "l", 1e6, 0, nil) })
}

func assertPanics(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	f()
}

func TestInjectWithoutPathDeliversDirectly(t *testing.T) {
	delivered := false
	Inject(&Packet{Dest: ReceiverFunc(func(*Packet) { delivered = true })})
	if !delivered {
		t.Error("pathless packet should deliver immediately")
	}
	// Nil dest is a no-op, not a panic.
	Inject(&Packet{})
}

// Conservation: every enqueued packet is either sent or dropped; none
// vanish.
func TestLinkConservation(t *testing.T) {
	eng := &Engine{}
	q := &testQueue{}
	link := NewLink(eng, "l", 1e6, time.Millisecond, q)
	got := 0
	dest := ReceiverFunc(func(*Packet) { got++ })
	const n = 200
	for i := 0; i < n; i++ {
		at := time.Duration(i%17) * time.Millisecond
		eng.ScheduleAt(at, func() {
			Inject(&Packet{Size: 500, Path: []*Link{link}, Dest: dest})
		})
	}
	eng.Run(time.Minute)
	st := link.Stats()
	if st.EnqueuedPackets != n {
		t.Errorf("enqueued = %d, want %d", st.EnqueuedPackets, n)
	}
	if got != n || st.SentPackets != n {
		t.Errorf("delivered = %d, sent = %d, want %d", got, st.SentPackets, n)
	}
	if q.Len() != 0 {
		t.Errorf("queue not drained: %d", q.Len())
	}
}
