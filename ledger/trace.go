package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/scenario"
)

// span is one timed interval of the traced run, taken by the benchmark
// around a call it makes itself: name, start and end in nanoseconds
// since the trace began, the span that caused it, and the op it belongs
// to. Spans stay in memory until the run ends.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index of the causing span, -1 for a root
	Op     int    `json:"op"`
	Worker int    `json:"worker,omitempty"`
	Note   string `json:"note,omitempty"`
}

func (s span) seconds() float64 { return float64(s.End-s.Start) / 1e9 }

// collector gathers one traced op's evidence: real spans from the
// benchmark's own call sites, exact work counts from a counting tracer
// and from every run's metric registry, and the sweep's per-spec
// timings. One collector spans the whole traced run and takes spans
// throughout; only the traced op hands it to the runner, so the counts
// are that op's alone.
type collector struct {
	t0 time.Time

	mu    sync.Mutex
	spans []span
	opID  int // op the next spans belong to
	opIdx int // span index of the current op, parent of its children

	// counts is the obs event tally, indexed by obs.EventType; probeAcks
	// counts acks of flow 1, which in the fig3 cell is the Nimbus probe.
	counts    [32]atomic.Int64
	probeAcks atomic.Int64

	// open tracks the registries of runs in flight, keyed by spec hash:
	// a run's registry holds its engine alive through the pull gauges,
	// so each is harvested into totals and dropped as soon as every run
	// of that hash has finished, keeping a 600-cell sweep at O(workers)
	// live engines.
	open   map[string]*openRuns
	totals map[string]float64

	// specs are the sweeps' per-spec timings from Runner.ProgressFunc;
	// picked holds when each spec in flight was picked up, by its index
	// in the sweep (one sweep runs at a time).
	specs  []scenario.RunStats
	picked map[int]time.Time
}

type openRuns struct {
	started int
	regs    []*obs.Registry
}

func newCollector() *collector {
	return &collector{
		t0: time.Now(), opIdx: -1,
		open: map[string]*openRuns{}, totals: map[string]float64{}, picked: map[int]time.Time{},
	}
}

// Emit implements obs.Tracer: count, keep nothing.
func (c *collector) Emit(ev obs.Event) {
	if int(ev.Type) < len(c.counts) {
		c.counts[ev.Type].Add(1)
	}
	if ev.Type == obs.EvAck && ev.Flow == 1 {
		c.probeAcks.Add(1)
	}
}

func (c *collector) count(t obs.EventType) float64 { return float64(c.counts[t].Load()) }

// begin opens a span under the current op and returns its index for
// end.
func (c *collector) begin(name string) int {
	now := time.Since(c.t0).Nanoseconds()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.spans = append(c.spans, span{Name: name, Start: now, Parent: c.opIdx, Op: c.opID})
	return len(c.spans) - 1
}

func (c *collector) end(i int) span {
	now := time.Since(c.t0).Nanoseconds()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.spans[i].End = now
	return c.spans[i]
}

// add records a finished span under parent.
func (c *collector) add(name string, start, end time.Time, parent int, note string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.spans = append(c.spans, span{
		Name: name, Start: start.Sub(c.t0).Nanoseconds(), End: end.Sub(c.t0).Nanoseconds(),
		Parent: parent, Op: c.opID, Note: note,
	})
}

// beginOp opens the root span of op id; spans begun until endOp are
// its children.
func (c *collector) beginOp(name string, id int) {
	now := time.Since(c.t0).Nanoseconds()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.spans = append(c.spans, span{Name: name, Start: now, Parent: -1, Op: id})
	c.opID, c.opIdx = id, len(c.spans)-1
}

func (c *collector) endOp() span {
	c.harvestAll()
	c.mu.Lock()
	idx := c.opIdx
	c.opIdx = -1
	c.mu.Unlock()
	return c.end(idx)
}

// newScope is the Runner.NewScope hook: every run gets a private
// registry and shares the counting tracer.
func (c *collector) newScope(sp scenario.Spec) *obs.Scope {
	reg := obs.NewRegistry()
	hash := sp.Hash()
	c.mu.Lock()
	o := c.open[hash]
	if o == nil {
		o = &openRuns{}
		c.open[hash] = o
	}
	o.regs = append(o.regs, reg)
	c.mu.Unlock()
	return &obs.Scope{Reg: reg, Tracer: c}
}

// progress is the Runner.ProgressFunc hook (sweeps only): it turns each
// finished spec into a span on its worker and harvests registries whose
// runs are all done.
func (c *collector) progress(ev scenario.ProgressEvent) {
	c.mu.Lock()
	defer c.mu.Unlock()
	o := c.open[ev.Run.Hash]
	if o == nil {
		o = &openRuns{}
		c.open[ev.Run.Hash] = o
	}
	switch ev.Kind {
	case scenario.RunStarted:
		o.started++
		c.picked[ev.Run.Index] = time.Now()
	case scenario.RunFinished:
		c.specs = append(c.specs, ev.Run)
		start := c.picked[ev.Run.Index]
		delete(c.picked, ev.Run.Index)
		// The runner reports how long the experiment ran; the span is
		// the experiment's, from when its worker picked the spec up.
		c.spans = append(c.spans, span{
			Name:  "scenario.spec",
			Start: start.Sub(c.t0).Nanoseconds(), End: start.Add(ev.Run.Elapsed).Sub(c.t0).Nanoseconds(),
			Parent: c.opIdx, Op: c.opID, Worker: ev.Run.Worker, Note: ev.Run.Spec.Experiment,
		})
		if o.started--; o.started == 0 {
			c.harvest(o)
			delete(c.open, ev.Run.Hash)
		}
	}
}

// harvested names the registry series the ledger reads; each is summed
// over every label (link, flow) and every run of the op.
var harvested = map[string]bool{
	"sim.engine.events":        true,
	"sim.link.sent_packets":    true,
	"sim.link.dropped_packets": true,
	"flow.bytes_sent":          true,
	"flow.bytes_retrans":       true,
}

// harvest sums a finished run's registries into totals. Callers hold mu.
func (c *collector) harvest(o *openRuns) {
	for _, reg := range o.regs {
		reg.Visit(func(name, _, _ string, v float64) {
			if harvested[name] {
				c.totals[name] += v
			}
		})
	}
	o.regs = nil
}

// harvestAll drains what progress never saw finish: runs made through
// Runner.Run, which reports no progress.
func (c *collector) harvestAll() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for hash, o := range c.open {
		c.harvest(o)
		delete(c.open, hash)
	}
}

// writeSpans writes every span as one JSON line.
func (c *collector) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range c.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
