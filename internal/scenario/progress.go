package scenario

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
)

// This file is the sweep-progress half of the fleet telemetry layer:
// the runner emits ProgressEvents (see Runner.ProgressFunc), and
// SweepReporter turns them into a live TTY status line, a JSONL event
// stream, sweep-level metrics on an obs.Registry, and an exit
// summary. A long `ccac sweep` stops being a silent black box: its
// progress is watchable, machine-parseable, and scrapeable.

// ProgressKind tags a ProgressEvent.
type ProgressKind uint8

const (
	// RunStarted fires when a worker picks a spec up (cache hits
	// included — they start and finish immediately).
	RunStarted ProgressKind = iota + 1
	// RunFinished fires when the run's slot is final: result, cache
	// hit, error, or recovered panic.
	RunFinished
)

// String returns the JSONL event name.
func (k ProgressKind) String() string {
	switch k {
	case RunStarted:
		return "run_start"
	case RunFinished:
		return "run_finish"
	}
	return "unknown"
}

// RunStats describes one run from the sweep's point of view. Start is
// measured from the sweep's first dispatch; Elapsed, Cached, Err, and
// FlightDump are meaningful on RunFinished only.
type RunStats struct {
	Index  int
	Spec   Spec
	Hash   string
	Worker int
	Start  time.Duration

	Elapsed    time.Duration
	Cached     bool
	Err        string
	FlightDump string
}

// SweepStats is the sweep-level aggregate view as of one event:
// counts, wall time, an EMA-smoothed completion rate, and the ETA it
// implies. RunsPerSec and ETA are zero until the first finish makes
// them estimable.
//
// Streaming sweeps may not know their size up front: when the spec
// source has no count hint, TotalKnown is false, Total stays 0, and no
// ETA is ever computed — renderers must show progress as a bare count
// instead of a fraction.
type SweepStats struct {
	Total      int
	TotalKnown bool
	Done       int
	Failed     int
	Cached     int

	Elapsed    time.Duration
	RunsPerSec float64
	ETA        time.Duration
}

// ProgressEvent is one runner notification: which run, what happened,
// and the aggregates at that instant.
type ProgressEvent struct {
	Kind  ProgressKind
	Run   RunStats
	Sweep SweepStats
}

// emaAlpha weights the newest per-run completion interval; ~0.15
// smooths worker-count bursts without lagging rate changes by more
// than a few runs.
const emaAlpha = 0.15

// sweepState is the runner's internal aggregate tracker. Its mutex
// also serializes ProgressFunc invocations.
type sweepState struct {
	start time.Time

	mu         sync.Mutex
	stats      SweepStats
	lastFinish time.Duration
}

// newSweepState starts the aggregate tracker; total < 0 means the
// source gave no count hint (TotalKnown stays false, no ETA).
func newSweepState(total int) *sweepState {
	st := &sweepState{start: time.Now()}
	if total >= 0 {
		st.stats.Total = total
		st.stats.TotalKnown = true
	}
	return st
}

func (st *sweepState) sinceStart() time.Duration { return time.Since(st.start) }

// emitProgress folds the event into the aggregates and forwards it.
// The nil check keeps unobserved sweeps at one branch per run.
func (r *Runner) emitProgress(st *sweepState, kind ProgressKind, run RunStats) {
	if r.ProgressFunc == nil {
		return
	}
	st.mu.Lock()
	now := st.sinceStart()
	st.stats.Elapsed = now
	if kind == RunFinished {
		st.stats.Done++
		if run.Err != "" {
			st.stats.Failed++
		}
		if run.Cached {
			st.stats.Cached++
		}
		if dt := (now - st.lastFinish).Seconds(); dt > 0 {
			inst := 1 / dt
			if st.stats.RunsPerSec == 0 {
				st.stats.RunsPerSec = inst
			} else {
				st.stats.RunsPerSec = emaAlpha*inst + (1-emaAlpha)*st.stats.RunsPerSec
			}
		}
		st.lastFinish = now
		st.stats.ETA = 0
		if st.stats.TotalKnown {
			if remaining := st.stats.Total - st.stats.Done; remaining > 0 && st.stats.RunsPerSec > 0 {
				st.stats.ETA = time.Duration(float64(remaining) / st.stats.RunsPerSec * float64(time.Second))
			}
		}
	}
	ev := ProgressEvent{Kind: kind, Run: run, Sweep: st.stats}
	r.ProgressFunc(ev)
	st.mu.Unlock()
}

// SweepReporter consumes ProgressEvents and renders them on up to
// three sinks plus an exit summary:
//
//   - TTY: a live single-line status, \r-rewritten (ccac sweep
//     -progress points it at stderr).
//   - JSONL: one "run_start"/"run_finish" line per run plus periodic
//     "progress" aggregate lines and a closing "sweep_summary" line.
//   - Reg: sweep.* metrics (done/failed/cached counters, a run-length
//     histogram, rate and ETA gauges) for /metrics scrapes and the
//     timeseries recorder.
//
// Configure the exported fields, pass Func() to Runner.ProgressFunc,
// and Close() after the sweep. The runner serializes calls, so the
// reporter's own mutex only guards against a concurrent Close.
type SweepReporter struct {
	// TTY, when non-nil, receives the live status line.
	TTY io.Writer
	// JSONL, when non-nil, receives the event stream.
	JSONL io.Writer
	// AggregateEvery throttles "progress" aggregate lines on the JSONL
	// stream: at most one per interval (0 means one after every
	// finish; the TTY line has its own 100ms throttle).
	AggregateEvery time.Duration
	// Reg, when non-nil, receives sweep.* metrics.
	Reg *obs.Registry

	mu        sync.Mutex
	init      bool
	bw        *bufio.Writer
	last      SweepStats
	slowest   []RunStats // ascending by Elapsed, at most slowestK
	failures  []RunStats
	lastAgg   time.Time
	lastTTY   time.Time
	ttyDirty  bool
	closed    bool
	firstErr  error
	wallStart time.Time

	mDone, mFailed, mCached *obs.Counter
	hRunS                   *obs.Histogram
	gTotal, gRate, gETA     *obs.Gauge
}

// slowestK bounds the slowest-runs table in the summary.
const slowestK = 5

func (p *SweepReporter) lazyInit() {
	if p.init {
		return
	}
	p.init = true
	p.wallStart = time.Now()
	if p.JSONL != nil {
		p.bw = bufio.NewWriterSize(p.JSONL, 1<<15)
	}
	if p.Reg != nil {
		p.mDone = p.Reg.Counter("sweep.runs_done")
		p.mFailed = p.Reg.Counter("sweep.runs_failed")
		p.mCached = p.Reg.Counter("sweep.cache_hits")
		p.hRunS = p.Reg.Histogram("sweep.run_seconds", "", obs.ExpBuckets(0.01))
		p.gTotal = p.Reg.Gauge("sweep.runs_total")
		p.gRate = p.Reg.Gauge("sweep.runs_per_sec")
		p.gETA = p.Reg.Gauge("sweep.eta_s")
	}
}

// Func returns the callback to install as Runner.ProgressFunc.
func (p *SweepReporter) Func() func(ProgressEvent) { return p.observe }

func (p *SweepReporter) observe(ev ProgressEvent) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return
	}
	p.lazyInit()
	p.last = ev.Sweep

	if ev.Kind == RunFinished {
		if ev.Run.Err != "" {
			p.failures = append(p.failures, ev.Run)
		} else if !ev.Run.Cached {
			p.noteSlowest(ev.Run)
		}
	}
	if p.Reg != nil {
		if ev.Sweep.TotalKnown {
			p.gTotal.Set(float64(ev.Sweep.Total))
		}
		if ev.Kind == RunFinished {
			p.mDone.Inc()
			if ev.Run.Err != "" {
				p.mFailed.Inc()
			}
			if ev.Run.Cached {
				p.mCached.Inc()
			}
			p.hRunS.Observe(ev.Run.Elapsed.Seconds())
			p.gRate.Set(ev.Sweep.RunsPerSec)
			p.gETA.Set(ev.Sweep.ETA.Seconds())
		}
	}
	if p.bw != nil {
		p.writeRunLine(ev)
		if ev.Kind == RunFinished && time.Since(p.lastAgg) >= p.AggregateEvery {
			p.lastAgg = time.Now()
			p.writeAggregateLine("progress", ev.Sweep)
		}
	}
	if p.TTY != nil {
		p.ttyDirty = true
		final := ev.Sweep.TotalKnown && ev.Sweep.Done == ev.Sweep.Total
		if final || time.Since(p.lastTTY) >= 100*time.Millisecond {
			p.lastTTY = time.Now()
			p.renderTTY(ev.Sweep)
		}
	}
}

// noteSlowest keeps the slowestK largest Elapsed values in ascending
// order.
func (p *SweepReporter) noteSlowest(run RunStats) {
	i := sort.Search(len(p.slowest), func(i int) bool { return p.slowest[i].Elapsed >= run.Elapsed })
	if len(p.slowest) < slowestK {
		p.slowest = append(p.slowest, RunStats{})
		copy(p.slowest[i+1:], p.slowest[i:])
		p.slowest[i] = run
		return
	}
	if i == 0 {
		return // faster than everything retained
	}
	copy(p.slowest[:i-1], p.slowest[1:i])
	p.slowest[i-1] = run
}

// runEventLine is the per-run JSONL schema.
type runEventLine struct {
	Type       string  `json:"type"`
	T          float64 `json:"t"`
	Index      int     `json:"i"`
	Experiment string  `json:"experiment"`
	Hash       string  `json:"hash"`
	Worker     int     `json:"worker"`
	ElapsedS   float64 `json:"elapsed_s,omitempty"`
	Cached     bool    `json:"cached,omitempty"`
	Error      string  `json:"error,omitempty"`
	FlightDump string  `json:"flight_dump,omitempty"`
}

// aggregateLine is the periodic/progress and sweep_summary schema.
// Total and EtaS are pointers so an unknown-total stream omits them
// entirely instead of emitting a misleading "total":0 / "eta_s":0.
type aggregateLine struct {
	Type       string      `json:"type"`
	T          float64     `json:"t"`
	Done       int         `json:"done"`
	Total      *int        `json:"total,omitempty"`
	Failed     int         `json:"failed"`
	Cached     int         `json:"cached"`
	RunsPerSec float64     `json:"runs_per_sec"`
	EtaS       *float64    `json:"eta_s,omitempty"`
	WallS      float64     `json:"wall_s,omitempty"`
	Slowest    []slowEntry `json:"slowest,omitempty"`
	Failures   []failEntry `json:"failures,omitempty"`
}

type slowEntry struct {
	Experiment string  `json:"experiment"`
	Hash       string  `json:"hash"`
	ElapsedS   float64 `json:"elapsed_s"`
}

type failEntry struct {
	Experiment string `json:"experiment"`
	Hash       string `json:"hash"`
	Error      string `json:"error"`
	FlightDump string `json:"flight_dump,omitempty"`
}

func (p *SweepReporter) writeRunLine(ev ProgressEvent) {
	line := runEventLine{
		Type:       ev.Kind.String(),
		T:          ev.Sweep.Elapsed.Seconds(),
		Index:      ev.Run.Index,
		Experiment: ev.Run.Spec.Experiment,
		Hash:       ev.Run.Hash,
		Worker:     ev.Run.Worker,
	}
	if ev.Kind == RunFinished {
		line.ElapsedS = ev.Run.Elapsed.Seconds()
		line.Cached = ev.Run.Cached
		line.Error = firstLine(ev.Run.Err)
		line.FlightDump = ev.Run.FlightDump
	}
	p.encodeLine(line)
}

func (p *SweepReporter) writeAggregateLine(typ string, s SweepStats) {
	line := aggregateLine{
		Type: typ, T: s.Elapsed.Seconds(),
		Done: s.Done, Failed: s.Failed, Cached: s.Cached,
		RunsPerSec: s.RunsPerSec,
	}
	if s.TotalKnown {
		total, eta := s.Total, s.ETA.Seconds()
		line.Total, line.EtaS = &total, &eta
	}
	p.encodeLine(line)
}

func (p *SweepReporter) encodeLine(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		if p.firstErr == nil {
			p.firstErr = err
		}
		return
	}
	p.bw.Write(b)
	if err := p.bw.WriteByte('\n'); err != nil && p.firstErr == nil {
		p.firstErr = err
	}
}

func (p *SweepReporter) renderTTY(s SweepStats) {
	if !s.TotalKnown {
		// No count hint: a bare done-count line, no fraction, no ETA.
		fmt.Fprintf(p.TTY, "\rsweep %d done  ok %d  fail %d  cache %d  %.2f runs/s",
			s.Done, s.Done-s.Failed, s.Failed, s.Cached, s.RunsPerSec)
		p.ttyDirty = false
		return
	}
	pct := 0.0
	if s.Total > 0 {
		pct = 100 * float64(s.Done) / float64(s.Total)
	}
	eta := "--"
	if s.ETA > 0 {
		eta = s.ETA.Round(time.Second).String()
	}
	fmt.Fprintf(p.TTY, "\rsweep %d/%d (%.1f%%)  ok %d  fail %d  cache %d  %.2f runs/s  eta %-8s",
		s.Done, s.Total, pct, s.Done-s.Failed, s.Failed, s.Cached, s.RunsPerSec, eta)
	p.ttyDirty = false
}

// Close flushes the sinks: the final TTY render gains its newline and
// the JSONL stream gains the closing "sweep_summary" line (totals,
// wall time, the slowest-K runs, and every failure). It returns the
// first sink write error. Close does not close the underlying
// writers — the caller owns the file handles.
func (p *SweepReporter) Close() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return p.firstErr
	}
	p.closed = true
	p.lazyInit()
	if p.TTY != nil {
		if p.ttyDirty {
			p.renderTTY(p.last)
		}
		fmt.Fprintln(p.TTY)
	}
	if p.bw != nil {
		line := aggregateLine{
			Type: "sweep_summary", T: p.last.Elapsed.Seconds(),
			Done:   p.last.Done,
			Failed: p.last.Failed, Cached: p.last.Cached,
			RunsPerSec: p.last.RunsPerSec,
			WallS:      time.Since(p.wallStart).Seconds(),
		}
		if p.last.TotalKnown {
			total, eta := p.last.Total, 0.0
			line.Total, line.EtaS = &total, &eta
		}
		for i := len(p.slowest) - 1; i >= 0; i-- {
			r := p.slowest[i]
			line.Slowest = append(line.Slowest, slowEntry{
				Experiment: r.Spec.Experiment, Hash: r.Hash, ElapsedS: r.Elapsed.Seconds(),
			})
		}
		for _, r := range p.failures {
			line.Failures = append(line.Failures, failEntry{
				Experiment: r.Spec.Experiment, Hash: r.Hash,
				Error: firstLine(r.Err), FlightDump: r.FlightDump,
			})
		}
		p.encodeLine(line)
		if err := p.bw.Flush(); err != nil && p.firstErr == nil {
			p.firstErr = err
		}
	}
	return p.firstErr
}

// Summarize writes the human exit summary: totals, throughput, the
// slowest-K runs, and the failure list with flight-dump pointers.
// Call it after Close.
func (p *SweepReporter) Summarize(w io.Writer) {
	p.mu.Lock()
	defer p.mu.Unlock()
	s := p.last
	wall := time.Since(p.wallStart)
	if p.closed {
		// Close froze the reporter; reuse its wall measurement basis.
		wall = s.Elapsed
	}
	if s.TotalKnown {
		fmt.Fprintf(w, "sweep: %d/%d done, %d failed, %d cached, %v wall (%.2f runs/s)\n",
			s.Done, s.Total, s.Failed, s.Cached, wall.Round(time.Millisecond), s.RunsPerSec)
	} else {
		fmt.Fprintf(w, "sweep: %d done, %d failed, %d cached, %v wall (%.2f runs/s)\n",
			s.Done, s.Failed, s.Cached, wall.Round(time.Millisecond), s.RunsPerSec)
	}
	if len(p.slowest) > 0 {
		fmt.Fprintf(w, "slowest runs:\n")
		for i := len(p.slowest) - 1; i >= 0; i-- {
			r := p.slowest[i]
			fmt.Fprintf(w, "  %8v  %s %s\n", r.Elapsed.Round(time.Millisecond), r.Spec.Experiment, shortHash(r.Hash))
		}
	}
	for _, r := range p.failures {
		fmt.Fprintf(w, "FAIL %s %s: %s", r.Spec.Experiment, shortHash(r.Hash), firstLine(r.Err))
		if r.FlightDump != "" {
			fmt.Fprintf(w, " (flight: %s)", r.FlightDump)
		}
		fmt.Fprintln(w)
	}
}

// Failed returns how many runs the reporter saw fail.
func (p *SweepReporter) Failed() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.last.Failed
}

func shortHash(h string) string {
	if len(h) > 12 {
		return h[:12]
	}
	return h
}

// firstLine truncates multi-line errors (recovered panics carry their
// stack) for the one-line event and summary formats.
func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}
