package obs

import (
	"bufio"
	"encoding/json"
	"io"
	"os"
	"sync/atomic"
)

// FlightRecorder is a bounded, always-on trace sink: a power-of-two
// ring of Events that retains the last N emitted, at constant cost
// even when full, so the events leading up to a failure, a panic, or
// a SIGQUIT survive for a post-mortem dump without paying for full
// tracing. Emit is lock-free — one atomic add plus a slot store — and
// never allocates.
//
// Concurrency: any number of goroutines may Emit. Reads (DumpRunLog,
// DumpFile) are meant for after the instrumented code
// has stopped — the failure/panic/shutdown paths — where they see a
// consistent ring. A dump taken while writers are still live (the
// SIGQUIT path) is best-effort: it may contain a small number of torn
// events, which is the accepted trade for a zero-overhead hot path.
type FlightRecorder struct {
	buf  []Event
	mask uint64
	next atomic.Uint64
}

// flightEvents is a recorder's retention: enough tail to reconstruct
// the last few RTTs of a run at packet granularity, small enough
// (~300 KiB) to attach to every run of a large sweep.
const flightEvents = 4096

// NewFlightRecorder returns a recorder retaining the last flightEvents
// events.
func NewFlightRecorder() *FlightRecorder { return newFlightRecorder(flightEvents) }

// newFlightRecorder returns a recorder retaining the last capacity
// events, rounded up to a power of two; the tests size small rings
// with it.
func newFlightRecorder(capacity int) *FlightRecorder {
	n := 1
	for n < capacity {
		n <<= 1
	}
	return &FlightRecorder{buf: make([]Event, n), mask: uint64(n - 1)}
}

// Emit implements Tracer. It never blocks and never allocates: the
// event lands in a pre-allocated slot, overwriting the oldest once the
// ring is full.
func (f *FlightRecorder) Emit(ev Event) {
	i := f.next.Add(1) - 1
	f.buf[i&f.mask] = ev
}

// DumpRunLog writes a complete, ReadRunLog-compatible post-mortem
// artifact: a manifest line, the retained tail of the event stream,
// and a summary line carrying errMsg plus the recorder's accounting
// (per-type counts of the retained events, and events_total /
// events_retained metrics so a reader can tell how much history was
// lost to the ring bound).
func (f *FlightRecorder) DumpRunLog(w io.Writer, m Manifest, errMsg string) error {
	bw := bufio.NewWriterSize(w, 1<<15)
	manifestLine := struct {
		Type string `json:"type"`
		Manifest
	}{Type: "manifest", Manifest: m}
	b, err := json.Marshal(manifestLine)
	if err != nil {
		return err
	}
	bw.Write(b)
	bw.WriteByte('\n')

	counts := make(map[string]int64)
	n := f.next.Load()
	start := uint64(0)
	if n > uint64(len(f.buf)) {
		start = n - uint64(len(f.buf))
	}
	for i := start; i < n; i++ {
		ev := f.buf[i&f.mask]
		counts[ev.Type.String()]++
		if err := writeEventJSON(bw, &ev); err != nil {
			return err
		}
	}

	summaryLine := struct {
		Type string `json:"type"`
		Summary
	}{Type: "summary", Summary: Summary{
		Error:       errMsg,
		EventCounts: counts,
		Metrics: map[string]float64{
			"events_total":    float64(n),
			"events_retained": float64(n - start),
		},
	}}
	b, err = json.Marshal(summaryLine)
	if err != nil {
		return err
	}
	bw.Write(b)
	bw.WriteByte('\n')
	return bw.Flush()
}

// DumpFile writes DumpRunLog to path, creating it (0644).
func (f *FlightRecorder) DumpFile(path string, m Manifest, errMsg string) error {
	file, err := os.Create(path)
	if err != nil {
		return err
	}
	err = f.DumpRunLog(file, m, errMsg)
	if cerr := file.Close(); err == nil {
		err = cerr
	}
	return err
}
