// Package timeseries records registry and Go-runtime metrics into
// fixed-size per-series rings at a configurable cadence, turning the
// single-instant snapshots of internal/obs into "what happened over
// the last N minutes". It is the memory half of the fleet telemetry
// layer: probed and long ccac sweeps run a Recorder next to their
// /metrics endpoint so an operator (or a post-mortem) can see the
// recent history of every counter, gauge, and histogram without an
// external collector.
//
// The sampling hot path is allocation-free after warmup: series rings
// are pre-sized at creation, registry iteration goes through
// obs.Registry.Visit (no snapshot slice), and runtime stats come from
// runtime.ReadMemStats into a reused struct. A new series discovered
// mid-flight (a labeled family member appearing late) allocates once.
package timeseries

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
)

// Config shapes a Recorder.
type Config struct {
	// Registry is the metrics source. Nil records only runtime series.
	Registry *obs.Registry
	// Interval is Run's sampling cadence (default 1s).
	Interval time.Duration
	// Runtime, when true, also records Go runtime series: goroutine
	// count, heap bytes/objects, total GC pause seconds, and GC cycles
	// (names under "go.").
	Runtime bool

	// capacity is each series' ring capacity (default 600 — ten
	// minutes of history at the default cadence); tests shrink it.
	capacity int
}

func (c Config) interval() time.Duration {
	if c.Interval > 0 {
		return c.Interval
	}
	return time.Second
}

func (c Config) samples() int {
	if c.capacity > 0 {
		return c.capacity
	}
	return 600
}

// Sample is one recorded observation: T seconds since the recorder
// started, V the metric value.
type Sample struct {
	T float64 `json:"t"`
	V float64 `json:"v"`
}

// seriesKey identifies one ring. Field distinguishes the count and
// sum series a histogram contributes.
type seriesKey struct{ name, label, field string }

type series struct {
	buf []Sample
	pos int
	n   int
}

func (s *series) append(t, v float64) {
	s.buf[s.pos] = Sample{T: t, V: v}
	s.pos = (s.pos + 1) % len(s.buf)
	if s.n < len(s.buf) {
		s.n++
	}
}

func (s *series) snapshot() []Sample {
	out := make([]Sample, s.n)
	start := (s.pos - s.n + len(s.buf)) % len(s.buf)
	for i := 0; i < s.n; i++ {
		out[i] = s.buf[(start+i)%len(s.buf)]
	}
	return out
}

// Recorder samples a registry (and optionally the Go runtime) into
// per-series rings. Methods are safe for concurrent use; Sample and
// the query methods share one mutex, so queries briefly pause
// sampling rather than racing it.
type Recorder struct {
	cfg   Config
	start time.Time

	mu     sync.Mutex
	series map[seriesKey]*series
	order  []seriesKey // creation order for stable listings
	nowS   float64     // timestamp handed to visit during a Sample
	ms     runtime.MemStats
	visit  func(name, label, field string, v float64) // pre-bound, no per-sample closure alloc
	ticks  int64
}

// New returns a Recorder over cfg. Call Sample directly (tests,
// manual cadences) or Run for a ticker loop.
func New(cfg Config) *Recorder {
	r := &Recorder{
		cfg:    cfg,
		start:  time.Now(),
		series: make(map[seriesKey]*series),
	}
	r.visit = func(name, label, field string, v float64) {
		r.record(seriesKey{name, label, field}, v)
	}
	return r
}

// record appends under r.mu (held by Sample).
func (r *Recorder) record(k seriesKey, v float64) {
	s, ok := r.series[k]
	if !ok {
		s = &series{buf: make([]Sample, r.cfg.samples())}
		r.series[k] = s
		r.order = append(r.order, k)
	}
	s.append(r.nowS, v)
}

// Sample takes one observation of every series at the given timestamp
// (seconds since the recorder started; pass Elapsed() for wall
// cadences). Zero allocations once every series exists.
func (r *Recorder) Sample(at time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.nowS = at.Seconds()
	r.ticks++
	if r.cfg.Registry != nil {
		r.cfg.Registry.Visit(r.visit)
	}
	if r.cfg.Runtime {
		r.record(seriesKey{"go.goroutines", "", ""}, float64(runtime.NumGoroutine()))
		runtime.ReadMemStats(&r.ms)
		r.record(seriesKey{"go.heap_alloc_bytes", "", ""}, float64(r.ms.HeapAlloc))
		r.record(seriesKey{"go.heap_objects", "", ""}, float64(r.ms.HeapObjects))
		r.record(seriesKey{"go.gc_pause_total_s", "", ""}, float64(r.ms.PauseTotalNs)/1e9)
		r.record(seriesKey{"go.gc_cycles", "", ""}, float64(r.ms.NumGC))
	}
}

// Elapsed returns the time since the recorder was created — the
// timestamp base Run samples with.
func (r *Recorder) Elapsed() time.Duration { return time.Since(r.start) }

// Ticks returns how many Sample calls have run.
func (r *Recorder) Ticks() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.ticks
}

// Run samples at the configured cadence until ctx is done. It takes
// one sample immediately so short-lived processes still record.
func (r *Recorder) Run(ctx context.Context) {
	r.Sample(r.Elapsed())
	t := time.NewTicker(r.cfg.interval())
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			r.Sample(r.Elapsed())
		}
	}
}

// SeriesInfo describes one recorded series.
type SeriesInfo struct {
	Name    string `json:"name"`
	Label   string `json:"label,omitempty"`
	Field   string `json:"field,omitempty"`
	Samples int    `json:"samples"`
}

// Series is a queried series with its retained samples oldest-first.
type Series struct {
	SeriesInfo
	Data []Sample `json:"data"`
}

// List returns every recorded series, sorted by (name, label, field).
func (r *Recorder) List() []SeriesInfo {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]SeriesInfo, 0, len(r.order))
	for _, k := range r.order {
		out = append(out, SeriesInfo{Name: k.name, Label: k.label, Field: k.field, Samples: r.series[k].n})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		if out[i].Label != out[j].Label {
			return out[i].Label < out[j].Label
		}
		return out[i].Field < out[j].Field
	})
	return out
}

// Query returns every series matching name (required) and, when
// non-empty, label and field.
func (r *Recorder) Query(name, label, field string) []Series {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []Series
	for _, k := range r.order {
		if k.name != name {
			continue
		}
		if label != "" && k.label != label {
			continue
		}
		if field != "" && k.field != field {
			continue
		}
		out = append(out, Series{
			SeriesInfo: SeriesInfo{Name: k.name, Label: k.label, Field: k.field, Samples: r.series[k].n},
			Data:       r.series[k].snapshot(),
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Label != out[j].Label {
			return out[i].Label < out[j].Label
		}
		return out[i].Field < out[j].Field
	})
	return out
}

// WriteJSONL dumps every retained sample as one JSON object per line
// ({"name":...,"label":...,"field":...,"t":...,"v":...}), series in
// sorted order, samples oldest-first — the artifact format for
// "attach the last N minutes to the bug report".
func (r *Recorder) WriteJSONL(w io.Writer) error {
	type line struct {
		Name  string  `json:"name"`
		Label string  `json:"label,omitempty"`
		Field string  `json:"field,omitempty"`
		T     float64 `json:"t"`
		V     float64 `json:"v"`
	}
	infos := r.List()
	enc := json.NewEncoder(w)
	for _, info := range infos {
		for _, ser := range r.Query(info.Name, info.Label, info.Field) {
			for _, s := range ser.Data {
				if err := enc.Encode(line{Name: ser.Name, Label: ser.Label, Field: ser.Field, T: s.T, V: s.V}); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// Handler serves the recorder over HTTP — mount it as "/timeseries"
// on an obs.AdminMux:
//
//	GET /timeseries                     JSON index of recorded series
//	GET /timeseries?name=N[&label=L][&field=F]   matching series + data
//	GET /timeseries?format=jsonl        full JSONL dump of every sample
func (r *Recorder) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		q := req.URL.Query()
		if q.Get("format") == "jsonl" {
			w.Header().Set("Content-Type", "application/jsonl")
			if err := r.WriteJSONL(w); err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
			}
			return
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		name := q.Get("name")
		if name == "" {
			enc.Encode(struct {
				IntervalS float64      `json:"interval_s"`
				Retention int          `json:"retention"`
				Ticks     int64        `json:"ticks"`
				Series    []SeriesInfo `json:"series"`
			}{r.cfg.interval().Seconds(), r.cfg.samples(), r.Ticks(), r.List()})
			return
		}
		matches := r.Query(name, q.Get("label"), q.Get("field"))
		if len(matches) == 0 {
			http.Error(w, fmt.Sprintf("no series named %q", name), http.StatusNotFound)
			return
		}
		enc.Encode(matches)
	})
}
