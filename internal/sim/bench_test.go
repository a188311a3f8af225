package sim

import (
	"testing"
	"time"
)

// BenchmarkEngineEvents measures raw event throughput: schedule+run of
// chained events (each event schedules the next), one pending at a
// time.
func BenchmarkEngineEvents(b *testing.B) {
	eng := &Engine{}
	n := 0
	var next func()
	next = func() {
		n++
		if n < b.N {
			eng.Schedule(time.Microsecond, next)
		}
	}
	eng.Schedule(time.Microsecond, next)
	b.ResetTimer()
	for eng.Step() {
	}
	if n < b.N {
		b.Fatalf("ran %d of %d", n, b.N)
	}
}

// BenchmarkEngineEventsDense measures event throughput with a dense
// resident timer population (4k outstanding, homogeneous near-future
// spread) — the workload thousands of transport senders create.
func BenchmarkEngineEventsDense(b *testing.B) {
	eng := &Engine{}
	const resident = 4096
	n := 0
	var next func()
	next = func() {
		n++
		if n < b.N+resident {
			// Spread rescheduling across ~50ms like per-flow RTT timers.
			eng.Schedule(time.Duration(1+n%200)*250*time.Microsecond, next)
		}
	}
	for i := 0; i < resident; i++ {
		eng.Schedule(time.Duration(1+i%200)*250*time.Microsecond, next)
	}
	b.ResetTimer()
	for n < b.N {
		if !eng.Step() {
			b.Fatalf("drained early at %d of %d", n, b.N)
		}
	}
}

// coldStart is the engine's share of what every census or hunt cell
// pays before its first packet moves: a new engine, 1,000 events
// spread from microseconds to tens of seconds ahead, drained.
func coldStart() int64 {
	eng := &Engine{}
	fn := func() {}
	for i := 0; i < 1000; i++ {
		d := time.Duration(i) * 60 * time.Microsecond // 0-60ms
		switch i % 4 {
		case 2: // 0.1-10s
			d = time.Duration(i) * 10 * time.Millisecond
		case 3: // 20-21s
			d = 20*time.Second + time.Duration(i)*time.Millisecond
		}
		eng.Schedule(d, fn)
	}
	for eng.Step() {
	}
	return eng.Processed
}

// BenchmarkEngineColdStart measures coldStart per iteration; run with
// -benchmem. TestEngineColdStartAllocs pins its allocation count.
func BenchmarkEngineColdStart(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if n := coldStart(); n != 1000 {
			b.Fatalf("fired %d of 1000", n)
		}
	}
}

// TestEngineColdStartAllocs bounds what a fresh engine allocates to
// the growth of its three arrays — slot table, free list, heap — which
// is a few dozen append doublings however the events spread. Storage
// allocated per event or per distinct time (hundreds here) would break
// the bound.
func TestEngineColdStartAllocs(t *testing.T) {
	const limit = 48
	if allocs := testing.AllocsPerRun(20, func() { coldStart() }); allocs > limit {
		t.Fatalf("a fresh engine scheduling and draining 1,000 events allocates %.0f times, want at most %d", allocs, limit)
	}
}

// BenchmarkTimerRearm measures one packet event that re-arms an
// RTO-like timer 200ms ahead, as a sender does on every send and ack:
// by Postpone, or by Cancel + ScheduleAt, which leaves a dead event per
// re-arm queued for the whole timeout (800 here). Both run at 0
// allocs/op once the slot table is warm.
func BenchmarkTimerRearm(b *testing.B) {
	for _, mode := range []struct {
		name     string
		postpone bool
	}{{"postpone", true}, {"cancel+schedule", false}} {
		b.Run(mode.name, func(b *testing.B) {
			eng := &Engine{}
			fire := func() { b.Fatal("the re-armed timer fired") }
			var rto Timer
			var packet func()
			packet = func() {
				at := eng.Now() + 200*time.Millisecond
				if !mode.postpone || !rto.Postpone(at) {
					rto.Cancel()
					rto = eng.ScheduleAt(at, fire)
				}
				eng.Schedule(250*time.Microsecond, packet)
			}
			eng.Schedule(0, packet)
			for i := 0; i < 10000; i++ { // 2.5 virtual s: past one timeout
				eng.Step()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eng.Step()
			}
		})
	}
}

// BenchmarkLinkForwarding measures the per-packet cost of the link
// pipeline (enqueue, serialize, propagate, deliver) using pooled
// packets, as transport does — the full path is zero-alloc.
func BenchmarkLinkForwarding(b *testing.B) {
	eng := &Engine{}
	link := NewLink(eng, "l", 1e12, time.Microsecond, &testQueue{})
	got := 0
	dest := ReceiverFunc(func(p *Packet) { got++; p.Release() })
	path := []*Link{link}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := eng.NewPacket()
		p.Size = MSS
		p.Path = path
		p.Dest = dest
		Inject(p)
		eng.Run(time.Duration(i+1) * time.Millisecond)
	}
	if got != b.N {
		b.Fatalf("delivered %d of %d", got, b.N)
	}
}

// TestLinkForwardingAllocs pins the link forwarding path at zero
// steady-state allocations: once the pool and event slots are warm,
// pushing a pooled packet through enqueue, serialization, propagation,
// and delivery must not allocate.
func TestLinkForwardingAllocs(t *testing.T) {
	eng := &Engine{}
	link := NewLink(eng, "l", 1e9, 50*time.Microsecond, &testQueue{})
	dest := ReceiverFunc(func(p *Packet) { p.Release() })
	path := []*Link{link}
	send := func(n int) {
		for i := 0; i < n; i++ {
			p := eng.NewPacket()
			p.Size = MSS
			p.Path = path
			p.Dest = dest
			Inject(p)
		}
		for eng.Step() {
		}
	}
	send(512) // warm pool, slots, and queue capacity
	allocs := testing.AllocsPerRun(100, func() { send(64) })
	if allocs > 0 {
		t.Fatalf("link forwarding allocates %.1f times per 64-packet batch, want 0", allocs)
	}
}
