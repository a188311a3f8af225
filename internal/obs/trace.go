package obs

import (
	"bufio"
	"io"
	"strconv"
	"sync"
	"time"
)

// EventType classifies a trace event.
type EventType uint8

// Event types. Bulk types (per-packet volume: enqueue, dequeue, send,
// ack, cwnd) are subject to tracer sampling; control types (drops,
// losses, state and fault transitions, eta windows) are always kept.
const (
	EvNone    EventType = iota
	EvEnqueue           // packet accepted by a queue. V1=size, V2=queue bytes after
	EvDequeue           // packet left a queue for serialization. V1=size, V2=queue bytes after
	EvDrop              // packet dropped (queue full or injector). V1=size, Note=reason
	EvMark              // AQM drop/mark decision (codel). V1=size, Note=aqm
	EvSend              // transport handed a packet to the network. V1=size, V2=inflight bytes
	EvAck               // acknowledgment processed. V1=rtt seconds, V2=cum acked bytes
	EvLoss              // packet declared lost. V1=size
	EvTimeout           // retransmission timeout fired
	EvCwnd              // congestion window sample. V1=cwnd bytes, V2=pacing bits/s
	EvState             // component state transition. Note=new state
	EvFault             // fault (de)activation. Note=down/up/burst_start/burst_end
	EvPulse             // elasticity pulse cycle boundary. V1=cycle index
	EvEta               // elasticity window emitted. V1=eta, V2=response phase (rad)
	EvRate              // link rate change. V1=bits/s
	EvSession           // probe session lifecycle. Note=new/evicted/rejected/bye
	evMax
)

var evNames = [evMax]string{
	EvNone:    "none",
	EvEnqueue: "enqueue",
	EvDequeue: "dequeue",
	EvDrop:    "drop",
	EvMark:    "mark",
	EvSend:    "send",
	EvAck:     "ack",
	EvLoss:    "loss",
	EvTimeout: "timeout",
	EvCwnd:    "cwnd",
	EvState:   "state",
	EvFault:   "fault",
	EvPulse:   "pulse",
	EvEta:     "eta",
	EvRate:    "rate",
	EvSession: "session",
}

// String returns the wire name of the event type.
func (t EventType) String() string {
	if t < evMax {
		return evNames[t]
	}
	return "unknown"
}

// ParseEventType inverts String. Unknown names return EvNone.
func ParseEventType(s string) EventType {
	for i, n := range evNames {
		if n == s {
			return EventType(i)
		}
	}
	return EvNone
}

// Bulk reports whether the type is a per-packet volume event subject
// to sampling (control events are always retained).
func (t EventType) Bulk() bool {
	switch t {
	case EvEnqueue, EvDequeue, EvSend, EvAck, EvCwnd:
		return true
	}
	return false
}

// Event is one typed trace record. All timestamps are virtual
// (sim) time for emulated components, or time since process start for
// the live probe daemons — never wall clock, so traces from a seeded
// run are byte-for-byte reproducible. The struct is plain data with no
// pointers beyond string headers; emitting one does not allocate.
type Event struct {
	// At is the event time.
	At time.Duration
	// Type classifies the event.
	Type EventType
	// Src names the emitting component ("bottleneck", "sender",
	// "nimbus", "faults/outage", ...).
	Src string
	// Flow is the flow id, or 0 when not flow-scoped.
	Flow int32
	// Seq is the packet sequence number, where applicable.
	Seq int64
	// V1, V2 carry type-specific values (see the type constants).
	V1, V2 float64
	// Note carries a short constant label (state names, drop reasons).
	Note string
}

// Tracer consumes trace events. Implementations must be safe for
// concurrent Emit calls. Instrumented code holds a Tracer field that
// is nil when tracing is disabled; the guard is
//
//	if tr != nil { tr.Emit(ev) }
//
// which costs one branch and zero allocations per event.
type Tracer interface {
	Emit(ev Event)
}

// Stream is a sampling-aware tracer that writes each event immediately
// as a JSONL line (buffered). It retains nothing in memory, so it suits
// long runs; call Flush (or RunLogWriter.Close) before reading the
// output. Control events are always written; bulk events are written
// one in every Sample occurrences (per type), and the per-type counts
// keep the true totals.
type Stream struct {
	mu     sync.Mutex
	w      *bufio.Writer
	sample uint64
	skips  [evMax]uint64
	counts [evMax]uint64
	err    error
}

// NewStream returns a streaming tracer over w keeping every event.
func NewStream(w io.Writer) *Stream {
	return &Stream{w: bufio.NewWriterSize(w, 1<<16), sample: 1}
}

// SetSampling keeps one in every n bulk events (n <= 1 keeps all).
// Control events are never sampled out.
func (s *Stream) SetSampling(n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if n < 1 {
		n = 1
	}
	s.sample = uint64(n)
}

// Emit implements Tracer.
func (s *Stream) Emit(ev Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t := ev.Type
	if t >= evMax {
		t = EvNone
	}
	s.counts[t]++
	if s.sample > 1 && t.Bulk() {
		s.skips[t]++
		if s.skips[t]%s.sample != 0 {
			return
		}
	}
	if s.err == nil {
		s.err = writeEventJSON(s.w, &ev)
	}
}

// Counts returns the true per-type totals seen so far.
func (s *Stream) Counts() map[string]int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]int64)
	for t := EventType(1); t < evMax; t++ {
		if s.counts[t] > 0 {
			out[t.String()] = int64(s.counts[t])
		}
	}
	return out
}

// Flush drains the write buffer and returns the first write error.
func (s *Stream) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return s.err
	}
	return s.w.Flush()
}

// writeEventJSON renders one event as a run-log line. Hand-rolled
// (rather than encoding/json) so the enabled tracing path stays cheap
// on multi-hundred-thousand-event runs.
func writeEventJSON(w *bufio.Writer, ev *Event) error {
	w.WriteString(`{"type":"event","t":`)
	w.WriteString(strconv.FormatFloat(ev.At.Seconds(), 'f', 6, 64))
	w.WriteString(`,"ev":"`)
	w.WriteString(ev.Type.String())
	w.WriteString(`"`)
	if ev.Src != "" {
		w.WriteString(`,"src":`)
		w.WriteString(strconv.Quote(ev.Src))
	}
	if ev.Flow != 0 {
		w.WriteString(`,"flow":`)
		w.WriteString(strconv.FormatInt(int64(ev.Flow), 10))
	}
	if ev.Seq != 0 {
		w.WriteString(`,"seq":`)
		w.WriteString(strconv.FormatInt(ev.Seq, 10))
	}
	if ev.V1 != 0 {
		w.WriteString(`,"v1":`)
		w.WriteString(strconv.FormatFloat(ev.V1, 'g', -1, 64))
	}
	if ev.V2 != 0 {
		w.WriteString(`,"v2":`)
		w.WriteString(strconv.FormatFloat(ev.V2, 'g', -1, 64))
	}
	if ev.Note != "" {
		w.WriteString(`,"note":`)
		w.WriteString(strconv.Quote(ev.Note))
	}
	if _, err := w.WriteString("}\n"); err != nil {
		return err
	}
	return nil
}

// Multi fans one event out to several tracers.
type Multi []Tracer

// Emit implements Tracer.
func (m Multi) Emit(ev Event) {
	for _, t := range m {
		if t != nil {
			t.Emit(ev)
		}
	}
}

// Scope bundles a registry and a tracer for threading through
// scenario constructors. A nil *Scope (or nil fields) disables the
// corresponding instrumentation; all methods are nil-safe.
type Scope struct {
	Reg    *Registry
	Tracer Tracer
}

// NewScope returns a scope with a fresh registry and no tracer: the
// unit of per-run isolation. Parallel sweeps hand every run its own
// scope from here (or from a caller-supplied factory) so concurrent
// runs never share metric or trace state.
func NewScope() *Scope { return &Scope{Reg: NewRegistry()} }

// T returns the scope's tracer, or nil.
func (s *Scope) T() Tracer {
	if s == nil {
		return nil
	}
	return s.Tracer
}

// R returns the scope's registry, or nil.
func (s *Scope) R() *Registry {
	if s == nil {
		return nil
	}
	return s.Reg
}

// Emit forwards to the scope's tracer when present.
func (s *Scope) Emit(ev Event) {
	if s != nil && s.Tracer != nil {
		s.Tracer.Emit(ev)
	}
}

// TraceSetter is implemented by components that can be handed a tracer
// after construction (congestion controllers behind interfaces, fault
// chains). Wiring helpers feature-test for it.
type TraceSetter interface {
	SetTracer(Tracer)
}
