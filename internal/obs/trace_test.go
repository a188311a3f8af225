package obs

import (
	"bytes"
	"io"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestStreamSamplingKeepsControlEvents(t *testing.T) {
	var buf bytes.Buffer
	s := NewStream(&buf)
	s.SetSampling(10)
	for i := 0; i < 100; i++ {
		s.Emit(Event{Type: EvSend}) // bulk: sampled
		s.Emit(Event{Type: EvDrop}) // control: always kept
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if sends := strings.Count(buf.String(), `"ev":"send"`); sends != 10 {
		t.Errorf("sampled sends %d want 10", sends)
	}
	if drops := strings.Count(buf.String(), `"ev":"drop"`); drops != 100 {
		t.Errorf("drops %d want 100 (control events must not be sampled)", drops)
	}
	if s.Counts()["send"] != 100 {
		t.Errorf("true send count %d want 100", s.Counts()["send"])
	}
}

func TestStreamJSONLRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	s := NewStream(&buf)
	want := []Event{
		{At: 1500 * time.Millisecond, Type: EvEnqueue, Src: "bottleneck", Flow: 1, Seq: 42, V1: 1500, V2: 3000},
		{At: 2 * time.Second, Type: EvState, Src: "bbr", Note: "probe_bw"},
		{At: 3 * time.Second, Type: EvEta, Src: "nimbus", V1: 1.25, V2: -3.1},
	}
	for _, ev := range want {
		s.Emit(ev)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	// Prepend a manifest so ReadRunLog accepts it.
	log := `{"type":"manifest","tool":"test","seed":7}` + "\n" + buf.String()
	got, err := ReadRunLog(strings.NewReader(log))
	if err != nil {
		t.Fatal(err)
	}
	if got.Manifest.Tool != "test" || got.Manifest.Seed != 7 {
		t.Fatalf("manifest: %+v", got.Manifest)
	}
	if len(got.Events) != len(want) {
		t.Fatalf("events %d want %d", len(got.Events), len(want))
	}
	for i, ev := range got.Events {
		w := want[i]
		// Timestamps round-trip through 6-decimal seconds.
		if d := ev.At - w.At; d < -time.Microsecond || d > time.Microsecond {
			t.Errorf("event %d time %v want %v", i, ev.At, w.At)
		}
		ev.At = w.At
		if ev != w {
			t.Errorf("event %d: got %+v want %+v", i, ev, w)
		}
	}
}

func TestRunLogWriterSummary(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewRunLogWriter(&buf, Manifest{Tool: "unit", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	tr := w.Tracer()
	tr.Emit(Event{Type: EvSend, V1: 1200})
	tr.Emit(Event{Type: EvEta, V1: 0.9})
	if err := w.Close(Summary{Metrics: map[string]float64{"mean_eta": 0.9}}); err != nil {
		t.Fatal(err)
	}
	got, err := ReadRunLog(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Summary == nil {
		t.Fatal("no summary")
	}
	if got.Summary.Metrics["mean_eta"] != 0.9 {
		t.Errorf("metrics: %v", got.Summary.Metrics)
	}
	if got.Summary.EventCounts["send"] != 1 || got.Summary.EventCounts["eta"] != 1 {
		t.Errorf("event counts: %v", got.Summary.EventCounts)
	}
}

func TestReadRunLogErrors(t *testing.T) {
	if _, err := ReadRunLog(strings.NewReader(`{"type":"event","ev":"send"}` + "\n")); err == nil {
		t.Error("missing manifest not rejected")
	}
	if _, err := ReadRunLog(strings.NewReader(`{"type":"mystery"}` + "\n")); err == nil {
		t.Error("unknown line type not rejected")
	}
	if _, err := ReadRunLog(strings.NewReader("not json\n")); err == nil {
		t.Error("malformed line not rejected")
	}
}

// TestConcurrentRingEmit: both sinks take Emit from many goroutines
// (run under -race): the flight ring counts every event, the stream's
// per-type totals stay exact.
func TestConcurrentRingEmit(t *testing.T) {
	ring := newFlightRecorder(1 << 16) // no wrap: lapped slots are torn by design
	stream := NewStream(io.Discard)
	tr := Multi{ring, stream}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 5000; i++ {
				tr.Emit(Event{Type: EvAck, Flow: int32(g), Seq: int64(i)})
			}
		}(g)
	}
	wg.Wait()
	if got := ring.Total(); got != 40000 {
		t.Errorf("flight ring total %d want 40000", got)
	}
	if got := stream.Counts()["ack"]; got != 40000 {
		t.Errorf("stream count %d want 40000", got)
	}
}

// TestDisabledTracerZeroAlloc is the acceptance guard: with tracing
// disabled (nil tracer) the per-event overhead path must allocate
// nothing. The always-on flight ring must not allocate either — events
// land in the preallocated buffer.
func TestDisabledTracerZeroAlloc(t *testing.T) {
	var tr Tracer // disabled
	ev := Event{At: time.Second, Type: EvEnqueue, Src: "bottleneck", Flow: 1, Seq: 9, V1: 1500}
	if allocs := testing.AllocsPerRun(1000, func() { emit(tr, ev) }); allocs != 0 {
		t.Errorf("disabled tracer path allocates %v bytes/event, want 0", allocs)
	}
	tr = newFlightRecorder(1 << 10)
	if allocs := testing.AllocsPerRun(1000, func() { emit(tr, ev) }); allocs != 0 {
		t.Errorf("enabled ring path allocates %v allocs/event, want 0", allocs)
	}
}

func BenchmarkEmitDisabled(b *testing.B) {
	var tr Tracer
	ev := Event{At: time.Second, Type: EvSend, Src: "l", Flow: 1, V1: 1500}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		emit(tr, ev)
	}
}

// emit is the guard instrumented code writes before each event.
func emit(tr Tracer, ev Event) {
	if tr != nil {
		tr.Emit(ev)
	}
}
