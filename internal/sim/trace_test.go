package sim

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/obs"
)

// traceRun drives a small seeded topology with a varying-rate link and
// returns the captured trace. Used to assert sim-time stamping and
// determinism.
func traceRun(seed int64) []obs.Event {
	eng := &Engine{}
	log := &eventLog{}
	link := NewLink(eng, "bottleneck", 8e6, 2*time.Millisecond, &testQueue{})
	link.Trace = log
	rng := rand.New(rand.NewSource(seed))
	DriveRate(eng, link, 10*time.Millisecond, CellularTrace(rng, 8e6))
	dest := ReceiverFunc(func(*Packet) {})
	for i := 0; i < 50; i++ {
		at := time.Duration(rng.Intn(90)) * time.Millisecond
		seq := int64(i)
		eng.ScheduleAt(at, func() {
			Inject(&Packet{Size: 1000, Seq: seq, Path: []*Link{link}, Dest: dest})
		})
	}
	eng.Run(100 * time.Millisecond)
	return log.evs
}

// eventLog keeps every event it is given, in order.
type eventLog struct{ evs []obs.Event }

func (l *eventLog) Emit(ev obs.Event) { l.evs = append(l.evs, ev) }

// TestTraceTimestampsAreSimTime asserts every event the sim layer emits
// is stamped with the engine's virtual clock: timestamps are monotone
// non-decreasing, bounded by the run horizon, and bit-identical across
// two runs with the same seed (wall-clock leakage would break both
// properties).
func TestTraceTimestampsAreSimTime(t *testing.T) {
	evs := traceRun(42)
	if len(evs) == 0 {
		t.Fatal("no events traced")
	}
	var last time.Duration
	for i, ev := range evs {
		if ev.At < last {
			t.Fatalf("event %d (%s) at %v before previous %v: timestamps not monotone sim-time", i, ev.Type, ev.At, last)
		}
		if ev.At > 100*time.Millisecond {
			t.Fatalf("event %d (%s) at %v beyond run horizon: not sim-time", i, ev.Type, ev.At)
		}
		last = ev.At
	}
	again := traceRun(42)
	if len(again) != len(evs) {
		t.Fatalf("seeded runs differ in length: %d vs %d", len(evs), len(again))
	}
	for i := range evs {
		if evs[i] != again[i] {
			t.Fatalf("seeded runs diverge at event %d: %+v vs %+v", i, evs[i], again[i])
		}
	}
	if diff := traceRun(43); len(diff) == len(evs) {
		same := true
		for i := range evs {
			if evs[i] != diff[i] {
				same = false
				break
			}
		}
		if same {
			t.Error("different seeds produced identical traces; rate driver not seeded?")
		}
	}
}

// TestTraceEventKinds checks the link emits the expected event types,
// including EvRate from the rate driver and EvDrop on queue refusal.
func TestTraceEventKinds(t *testing.T) {
	evs := traceRun(7)
	counts := map[obs.EventType]int{}
	for _, ev := range evs {
		counts[ev.Type]++
	}
	if counts[obs.EvEnqueue] == 0 || counts[obs.EvDequeue] == 0 {
		t.Errorf("missing enqueue/dequeue events: %v", counts)
	}
	if counts[obs.EvRate] == 0 {
		t.Errorf("rate driver emitted no EvRate events: %v", counts)
	}

	// Drops are traced with the refusing link as Src.
	eng := &Engine{}
	log := &eventLog{}
	link := NewLink(eng, "tiny", 8e6, 0, &rejectQueue{})
	link.Trace = log
	Inject(&Packet{Size: 1000, Seq: 5, Path: []*Link{link}})
	eng.Run(time.Millisecond)
	drops := log.evs
	if len(drops) != 1 || drops[0].Type != obs.EvDrop || drops[0].Src != "tiny" || drops[0].Seq != 5 {
		t.Errorf("drop trace: %+v", drops)
	}
}

// TestEngineRegisterMetrics checks the engine's pull-gauges reflect live
// state through a registry snapshot.
func TestEngineRegisterMetrics(t *testing.T) {
	eng := &Engine{}
	reg := obs.NewRegistry()
	eng.RegisterMetrics(reg)
	eng.Schedule(5*time.Millisecond, func() {})
	eng.Schedule(10*time.Millisecond, func() {})
	eng.Run(7 * time.Millisecond)

	got := map[string]float64{}
	for _, p := range reg.Snapshot() {
		got[p.Name] = p.Value
	}
	if got["sim.engine.events"] != 1 {
		t.Errorf("events = %v, want 1", got["sim.engine.events"])
	}
	if got["sim.engine.pending"] != 1 {
		t.Errorf("pending = %v, want 1", got["sim.engine.pending"])
	}
	if got["sim.engine.now_s"] != 0.007 {
		t.Errorf("now_s = %v, want 0.007", got["sim.engine.now_s"])
	}
	// Nil registry is a no-op, not a panic.
	eng.RegisterMetrics(nil)
}

// TestLinkRegisterMetrics checks link gauges are labeled by link name.
func TestLinkRegisterMetrics(t *testing.T) {
	eng := &Engine{}
	link := NewLink(eng, "bn", 8e6, 0, &testQueue{})
	reg := obs.NewRegistry()
	link.RegisterMetrics(reg)
	dest := ReceiverFunc(func(*Packet) {})
	for i := 0; i < 3; i++ {
		Inject(&Packet{Size: 1000, Path: []*Link{link}, Dest: dest})
	}
	eng.Run(time.Second)
	found := false
	for _, p := range reg.Snapshot() {
		if p.Name == "sim.link.sent_packets" {
			found = true
			if p.Label != "link=bn" {
				t.Errorf("label = %q, want link=bn", p.Label)
			}
			if p.Value != 3 {
				t.Errorf("sent_packets = %v, want 3", p.Value)
			}
		}
	}
	if !found {
		t.Error("sim.link.sent_packets not registered")
	}
	link.RegisterMetrics(nil) // no-op
}
