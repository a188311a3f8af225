package obs

import (
	"bytes"
	"os"
	"strings"
	"testing"
	"time"
)

func flightEvent(i int) Event {
	return Event{
		At:   time.Duration(i) * time.Millisecond,
		Type: EvSend,
		Src:  "sender",
		Seq:  int64(i),
		V1:   1200,
	}
}

// retained reads f's retained events back through its run-log dump.
func retained(t *testing.T, f *FlightRecorder) []Event {
	t.Helper()
	var buf bytes.Buffer
	if err := f.DumpRunLog(&buf, Manifest{Tool: "t"}, ""); err != nil {
		t.Fatal(err)
	}
	log, err := ReadRunLog(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return log.Events
}

func TestFlightRecorderRetainsTail(t *testing.T) {
	f := newFlightRecorder(8)
	for i := 0; i < 5; i++ {
		f.Emit(flightEvent(i))
	}
	evs := retained(t, f)
	if len(evs) != 5 || f.Total() != 5 {
		t.Fatalf("len=%d total=%d, want 5/5", len(evs), f.Total())
	}
	for i, ev := range evs {
		if ev.Seq != int64(i) {
			t.Fatalf("event %d has seq %d", i, ev.Seq)
		}
	}
}

func TestFlightRecorderWraps(t *testing.T) {
	f := newFlightRecorder(8)
	const total = 21
	for i := 0; i < total; i++ {
		f.Emit(flightEvent(i))
	}
	if f.Total() != total {
		t.Fatalf("total=%d, want %d", f.Total(), total)
	}
	evs := retained(t, f)
	if len(evs) != 8 {
		t.Fatalf("%d events retained", len(evs))
	}
	// Oldest-first tail: seqs 13..20.
	for i, ev := range evs {
		if want := int64(total - 8 + i); ev.Seq != want {
			t.Fatalf("event %d: seq %d want %d", i, ev.Seq, want)
		}
	}
}

func TestFlightRecorderCapacityRounding(t *testing.T) {
	if n := newFlightRecorder(5); len(n.buf) != 8 {
		t.Errorf("capacity 5 rounded to %d, want 8", len(n.buf))
	}
	if n := NewFlightRecorder(); len(n.buf) != flightEvents {
		t.Errorf("NewFlightRecorder holds %d, want %d", len(n.buf), flightEvents)
	}
}

func TestFlightDumpRunLogRoundTrip(t *testing.T) {
	f := newFlightRecorder(8)
	const total = 12
	for i := 0; i < total; i++ {
		f.Emit(flightEvent(i))
	}
	f.Emit(Event{At: time.Second, Type: EvState, Src: "cca", Note: "loss_recovery"})

	m := Manifest{Tool: "ccac/test", Seed: 42,
		Extra: map[string]string{"artifact": "flight"}}
	var buf bytes.Buffer
	if err := f.DumpRunLog(&buf, m, "deliberate failure"); err != nil {
		t.Fatal(err)
	}

	log, err := ReadRunLog(&buf)
	if err != nil {
		t.Fatalf("flight dump is not a readable run log: %v", err)
	}
	if log.Manifest.Tool != "ccac/test" || log.Manifest.Seed != 42 {
		t.Errorf("manifest round-trip: %+v", log.Manifest)
	}
	if len(log.Events) != 8 {
		t.Errorf("%d events in dump, want retained 8", len(log.Events))
	}
	last := log.Events[len(log.Events)-1]
	if last.Type != EvState || last.Note != "loss_recovery" {
		t.Errorf("last event %+v, want the state transition", last)
	}
	if log.Summary == nil {
		t.Fatal("dump has no summary line")
	}
	if log.Summary.Error != "deliberate failure" {
		t.Errorf("summary error %q", log.Summary.Error)
	}
	if got := log.Summary.EventCounts["send"]; got != 7 {
		t.Errorf("retained send count %d, want 7", got)
	}
	if got := log.Summary.Metrics["events_total"]; got != total+1 {
		t.Errorf("events_total %v, want %d", got, total+1)
	}
	if got := log.Summary.Metrics["events_retained"]; got != 8 {
		t.Errorf("events_retained %v, want 8", got)
	}
}

func TestFlightDumpFile(t *testing.T) {
	f := newFlightRecorder(4)
	f.Emit(flightEvent(1))
	path := t.TempDir() + "/run.flight.jsonl"
	if err := f.DumpFile(path, Manifest{Tool: "t"}, "boom"); err != nil {
		t.Fatal(err)
	}
	file, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer file.Close()
	log, err := ReadRunLog(file)
	if err != nil {
		t.Fatal(err)
	}
	if len(log.Events) != 1 || log.Summary == nil || log.Summary.Error != "boom" {
		t.Errorf("dump file contents wrong: %+v", log)
	}
}

// TestFlightWriteJSONL checks the raw event lines of a dump after the
// ring wraps: one JSON line per retained event, oldest overwritten.
func TestFlightWriteJSONL(t *testing.T) {
	f := newFlightRecorder(4)
	for i := 0; i < 6; i++ {
		f.Emit(flightEvent(i))
	}
	var buf bytes.Buffer
	if err := f.DumpRunLog(&buf, Manifest{Tool: "t"}, ""); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	if len(lines) != 6 {
		t.Fatalf("%d lines, want manifest + 4 events + summary:\n%s", len(lines), buf.String())
	}
	events := strings.Join(lines[1:5], "\n") + "\n"
	if !strings.Contains(events, `"seq":5`) || strings.Contains(events, `"seq":1,`) {
		t.Errorf("wrong tail retained:\n%s", events)
	}
}

func BenchmarkFlightRecorderEmit(b *testing.B) {
	f := newFlightRecorder(flightEvents)
	ev := flightEvent(7)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Emit(ev)
	}
	if n := testing.AllocsPerRun(1000, func() { f.Emit(ev) }); n != 0 {
		b.Fatalf("Emit allocates %v/op", n)
	}
}
