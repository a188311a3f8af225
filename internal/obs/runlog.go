package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"time"
)

// Manifest identifies a traced run well enough to replay and diff it:
// the tool, the seeds, the controller, and the link/scenario spec. It
// is the first line of every run log.
type Manifest struct {
	// Tool is the producing command and experiment ("ccac/fig3",
	// "ccac/huntcell", ...).
	Tool string `json:"tool"`
	// Seed and FaultSeed are the workload and fault-injector seeds.
	Seed      int64 `json:"seed"`
	FaultSeed int64 `json:"fault_seed,omitempty"`
	// Profile names the fault profile, if any.
	Profile string `json:"profile,omitempty"`
	// RateBps, RTTSeconds, Queue, and BufferBDP describe the bottleneck.
	RateBps    float64 `json:"rate_bps,omitempty"`
	RTTSeconds float64 `json:"rtt_s,omitempty"`
	Queue      string  `json:"queue,omitempty"`
	BufferBDP  float64 `json:"buffer_bdp,omitempty"`
	// Phases lists scenario phases in order, if the run has phases.
	Phases []string `json:"phases,omitempty"`
	// Extra holds tool-specific key/value pairs.
	Extra map[string]string `json:"extra,omitempty"`
}

// Summary closes a run log: true per-type event counts (including any
// sampling discarded) and scalar result metrics, so a reader
// can validate a trace against the run's own accounting.
type Summary struct {
	// EventCounts maps event type name to the true emitted count.
	EventCounts map[string]int64 `json:"event_counts,omitempty"`
	// Metrics holds scalar results ("phase.reno.mean_eta": 1.2, ...).
	Metrics map[string]float64 `json:"metrics,omitempty"`
	// Error records why the run ended, when it ended badly — flight
	// recorder post-mortem dumps set it to the run error or panic.
	Error string `json:"error,omitempty"`
}

// RunLogWriter writes a run log: a manifest line, streamed event
// lines, and a closing summary line. The embedded tracer can be
// attached anywhere a Tracer is accepted.
type RunLogWriter struct {
	w  *bufio.Writer
	tr *Stream
}

// NewRunLogWriter writes the manifest line and returns a writer whose
// Tracer() streams events to w.
func NewRunLogWriter(w io.Writer, m Manifest) (*RunLogWriter, error) {
	bw := bufio.NewWriterSize(w, 1<<16)
	line := struct {
		Type string `json:"type"`
		Manifest
	}{Type: "manifest", Manifest: m}
	b, err := json.Marshal(line)
	if err != nil {
		return nil, err
	}
	bw.Write(b)
	bw.WriteByte('\n')
	if err := bw.Flush(); err != nil {
		return nil, err
	}
	return &RunLogWriter{w: bw, tr: NewStream(w)}, nil
}

// Tracer returns the streaming tracer feeding this run log.
func (l *RunLogWriter) Tracer() *Stream { return l.tr }

// Close flushes pending events and appends the summary line. If
// sum.EventCounts is nil the tracer's own true counts are used.
func (l *RunLogWriter) Close(sum Summary) error {
	if err := l.tr.Flush(); err != nil {
		return err
	}
	if sum.EventCounts == nil {
		sum.EventCounts = l.tr.Counts()
	}
	line := struct {
		Type string `json:"type"`
		Summary
	}{Type: "summary", Summary: sum}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	l.w.Write(b)
	l.w.WriteByte('\n')
	return l.w.Flush()
}

// RunLog is a parsed run log.
type RunLog struct {
	Manifest Manifest
	Events   []Event
	Summary  *Summary
}

// ReadRunLog parses a run log produced by RunLogWriter or by
// FlightRecorder.DumpRunLog. Unknown line types are an error;
// a missing manifest is an error; a missing summary is allowed (the
// run may have been interrupted) and leaves Summary nil.
func ReadRunLog(r io.Reader) (*RunLog, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	out := &RunLog{}
	haveManifest := false
	lineNo := 0
	for sc.Scan() {
		lineNo++
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		var line struct {
			Type string `json:"type"`
			Manifest
			T           float64            `json:"t"`
			Ev          string             `json:"ev"`
			Src         string             `json:"src"`
			Flow        int32              `json:"flow"`
			Seq         int64              `json:"seq"`
			V1          float64            `json:"v1"`
			V2          float64            `json:"v2"`
			Note        string             `json:"note"`
			EventCounts map[string]int64   `json:"event_counts"`
			Metrics     map[string]float64 `json:"metrics"`
			Error       string             `json:"error"`
		}
		if err := json.Unmarshal(raw, &line); err != nil {
			return nil, fmt.Errorf("obs: run log line %d: %w", lineNo, err)
		}
		switch line.Type {
		case "manifest":
			out.Manifest = line.Manifest
			haveManifest = true
		case "event":
			out.Events = append(out.Events, Event{
				At:   time.Duration(line.T * float64(time.Second)),
				Type: ParseEventType(line.Ev),
				Src:  line.Src,
				Flow: line.Flow,
				Seq:  line.Seq,
				V1:   line.V1,
				V2:   line.V2,
				Note: line.Note,
			})
		case "summary":
			out.Summary = &Summary{EventCounts: line.EventCounts, Metrics: line.Metrics, Error: line.Error}
		default:
			return nil, fmt.Errorf("obs: run log line %d: unknown type %q", lineNo, line.Type)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if !haveManifest {
		return nil, fmt.Errorf("obs: run log has no manifest line")
	}
	return out, nil
}
