package sim

import (
	"math/rand"
	"testing"
	"time"
)

func TestDriveRateAppliesSteps(t *testing.T) {
	eng := &Engine{}
	link := NewLink(eng, "l", 10e6, time.Millisecond, &testQueue{})
	rates := func(t time.Duration) float64 {
		switch {
		case t >= 2*time.Second:
			return 5e6
		case t >= time.Second:
			return 20e6
		}
		return 10e6
	}
	d := DriveRate(eng, link, 100*time.Millisecond, rates)
	eng.Run(500 * time.Millisecond)
	if link.Rate != 10e6 {
		t.Errorf("rate at 0.5s = %v", link.Rate)
	}
	eng.Run(1500 * time.Millisecond)
	if link.Rate != 20e6 {
		t.Errorf("rate at 1.5s = %v", link.Rate)
	}
	eng.Run(2500 * time.Millisecond)
	if link.Rate != 5e6 {
		t.Errorf("rate at 2.5s = %v", link.Rate)
	}
	if len(d.Trace) == 0 {
		t.Error("trace not recorded")
	}
}

func TestDriveRateFloorsAtPositive(t *testing.T) {
	eng := &Engine{}
	link := NewLink(eng, "l", 10e6, time.Millisecond, &testQueue{})
	DriveRate(eng, link, 100*time.Millisecond, func(time.Duration) float64 { return 0 })
	eng.Run(time.Second)
	if link.Rate <= 0 {
		t.Errorf("rate = %v, must stay positive", link.Rate)
	}
}

func TestCellularTraceBoundsAndMean(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	trace := CellularTrace(rng, 20e6)
	var sum float64
	const n = 10000
	for i := 0; i < n; i++ {
		r := trace(0)
		if r < 20e6*0.2-1 || r > 20e6*2+1 {
			t.Fatalf("rate %v outside clamps", r)
		}
		sum += r
	}
	mean := sum / n
	// Mean reversion keeps the long-run average near the nominal mean.
	if mean < 14e6 || mean > 26e6 {
		t.Errorf("long-run mean = %.1f Mbit/s, want ~20", mean/1e6)
	}
}

// TestRateChangeMidSerialization pins the documented semantics: a
// packet that began serializing keeps its original rate; only the next
// transmission sees the new one.
func TestRateChangeMidSerialization(t *testing.T) {
	eng := &Engine{}
	link := NewLink(eng, "l", 1e6, 0, &testQueue{})
	// 1250 B at 1 Mbit/s = 10ms. The rate jumps tenfold at 5ms, while
	// the first packet is mid-serialization.
	DriveRate(eng, link, 5*time.Millisecond, func(t time.Duration) float64 {
		if t >= 5*time.Millisecond {
			return 10e6
		}
		return 1e6
	})
	var delivered []time.Duration
	dest := ReceiverFunc(func(p *Packet) { delivered = append(delivered, eng.Now()) })
	eng.ScheduleAt(0, func() {
		Inject(&Packet{Size: 1250, Path: []*Link{link}, Dest: dest})
	})
	eng.ScheduleAt(20*time.Millisecond, func() {
		Inject(&Packet{Size: 1250, Path: []*Link{link}, Dest: dest})
	})
	eng.Run(time.Second)
	if len(delivered) != 2 {
		t.Fatalf("delivered %d packets", len(delivered))
	}
	if delivered[0] != 10*time.Millisecond {
		t.Errorf("first packet finished at %v, want 10ms (old rate must apply mid-serialization)", delivered[0])
	}
	if got := delivered[1] - 20*time.Millisecond; got != time.Millisecond {
		t.Errorf("second packet tx = %v, want 1ms at the new rate", got)
	}
}

// TestZeroRateClampedNoStall pins the 1 kbit/s floor: a driver
// demanding rate 0 must not stall the link forever, it slows it to the
// clamp.
func TestZeroRateClampedNoStall(t *testing.T) {
	eng := &Engine{}
	link := NewLink(eng, "l", 10e6, 0, &testQueue{})
	DriveRate(eng, link, 10*time.Millisecond, func(time.Duration) float64 { return 0 })
	var deliveredAt time.Duration
	// 125 B = 1000 bits = exactly 1s at the 1 kbit/s clamp.
	eng.ScheduleAt(0, func() {
		Inject(&Packet{Size: 125, Path: []*Link{link}, Dest: ReceiverFunc(func(*Packet) {
			deliveredAt = eng.Now()
		})})
	})
	eng.Run(5 * time.Second)
	if deliveredAt == 0 {
		t.Fatal("packet stalled: zero rate must clamp, not stop the link")
	}
	if deliveredAt != time.Second {
		t.Errorf("delivered at %v, want exactly 1s (1000 bits at the 1 kbit/s floor)", deliveredAt)
	}
}

// TestBackToBackRateChangesSameTick applies two drivers ticking at the
// same instants: the later-scheduled change wins (FIFO at equal
// times), each tick is recorded, and transmissions use the winner.
func TestBackToBackRateChangesSameTick(t *testing.T) {
	eng := &Engine{}
	link := NewLink(eng, "l", 1e6, 0, &testQueue{})
	d1 := DriveRate(eng, link, 10*time.Millisecond, func(time.Duration) float64 { return 2e6 })
	d2 := DriveRate(eng, link, 10*time.Millisecond, func(time.Duration) float64 { return 10e6 })
	eng.Run(25 * time.Millisecond)
	if link.Rate != 10e6 {
		t.Errorf("rate = %v, want the later-scheduled driver's 10e6 to win the tick", link.Rate)
	}
	if len(d1.Trace) != len(d2.Trace) || len(d1.Trace) == 0 {
		t.Errorf("both drivers must record every tick: %d vs %d", len(d1.Trace), len(d2.Trace))
	}
	for i := range d1.Trace {
		if d1.Trace[i].At != d2.Trace[i].At {
			t.Errorf("tick %d times diverge: %v vs %v", i, d1.Trace[i].At, d2.Trace[i].At)
		}
	}
	// A transmission after the contested tick runs at the winner's rate:
	// 1250 B at 10 Mbit/s = 1ms.
	var deliveredAt time.Duration
	eng.ScheduleAt(30*time.Millisecond, func() {
		Inject(&Packet{Size: 1250, Path: []*Link{link}, Dest: ReceiverFunc(func(*Packet) {
			deliveredAt = eng.Now()
		})})
	})
	eng.Run(100 * time.Millisecond)
	if got := deliveredAt - 30*time.Millisecond; got != time.Millisecond {
		t.Errorf("tx = %v, want 1ms at the winning rate", got)
	}
}

func TestVaryingLinkAffectsDelivery(t *testing.T) {
	eng := &Engine{}
	link := NewLink(eng, "l", 10e6, 0, &testQueue{})
	// Slow the link tenfold after 100 packets' worth of time.
	DriveRate(eng, link, 10*time.Millisecond, func(t time.Duration) float64 {
		if t >= 500*time.Millisecond {
			return 1e6
		}
		return 10e6
	})
	var delivered []time.Duration
	dest := ReceiverFunc(func(*Packet) { delivered = append(delivered, eng.Now()) })
	// Two packets: one early (fast), one late (slow).
	eng.ScheduleAt(100*time.Millisecond, func() {
		Inject(&Packet{Size: 1250, Path: []*Link{link}, Dest: dest})
	})
	eng.ScheduleAt(time.Second, func() {
		Inject(&Packet{Size: 1250, Path: []*Link{link}, Dest: dest})
	})
	eng.Run(3 * time.Second)
	if len(delivered) != 2 {
		t.Fatalf("delivered %d", len(delivered))
	}
	fast := delivered[0] - 100*time.Millisecond
	slow := delivered[1] - time.Second
	if fast != time.Millisecond {
		t.Errorf("fast tx = %v, want 1ms", fast)
	}
	if slow != 10*time.Millisecond {
		t.Errorf("slow tx = %v, want 10ms", slow)
	}
}
