package core

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/cca"
	"repro/internal/faults"
	"repro/internal/nimbus"
	"repro/internal/obs"
	"repro/internal/qdisc"
	"repro/internal/sim"
	"repro/internal/traffic"
	"repro/internal/transport"
)

// Every simulator experiment in this package runs on cells: a cell is
// an ordered list of named hops and an ordered list of flows over them,
// described as data and built by newCell. Experiments differ only in the
// values they pass: rates, delays, disciplines and faults, which flows
// cross which hops, which source each flow runs, when traffic starts and
// stops, and which windows are scored.

// crossUser owns every cross-traffic flow: the main flow's own user, so
// per-user disciplines do not separate the two.
const crossUser = 1

// cellSpec describes a cell.
type cellSpec struct {
	hops  []hop
	flows []flow
	// seed seeds the cell's one generator, which every "short" flow
	// draws its arrivals and sizes from and a fading hop its rate.
	seed int64
	// obs, when non-nil, receives the cell's trace events and metric
	// registrations: engine, links, AQM, faults and flows.
	obs *obs.Scope
}

// hop is one link of a cell.
type hop struct {
	name    string // default "bottleneck"
	rateBps float64
	delay   time.Duration // one way
	queue   QueueKind     // default droptail
	// The buffer is buf bytes when buf is set. Otherwise a hop with
	// bufRTT set is a droptail FIFO of one BDP over that round trip
	// (qdisc.NewDropTailBDP), and any other hop's buffer is bdp BDPs
	// (default 1) over its own round trip, at least 4 packets.
	bdp    float64
	bufRTT time.Duration
	buf    int
	// shapeBps is the shaper, policer or per-user rate (default half
	// the hop's rate).
	shapeBps float64
	// The fault chain wrapped around the discipline, seeded by
	// faultSeed: fault when non-nil, else the named profile
	// (resolveFaults). A chain that oscillates also drives the rate.
	faultProfile string
	fault        *faults.Config
	faultSeed    int64
	// fading drives the rate along sim.CellularTrace around rateBps,
	// one step every 100 ms, from the cell's generator.
	fading bool
}

// flow is one entry of a cell's flow list. The cell builds its flows in
// list order, and that order is the run's program: the engine orders
// same-time events by (at, seq), so what an earlier flow sends at t=0
// goes first.
type flow struct {
	id, user int
	// path lists the hops the flow's data crosses, by index; nil is hop
	// 0. Acks return after the sum of the path's hop delays.
	path []int
	// kind is the source: "" a backlogged flow under cc, a cca.New name
	// a backlogged flow under that controller, "cbr" a backlogged flow
	// paced at cbrBps, "video" an ABR stream over Cubic, "onoff" a Cubic
	// flow backlogged 500 ms of every second to the end of the run (a
	// stop does not hold it), "idle" nothing, and "short" Poisson
	// arrivals, shortRate a second, of flows numbered from id, their
	// sizes from sizes (default traffic.ShortSizes), their controllers
	// from newCC (default Reno), one-shot when openLoop.
	kind      string
	cc        transport.CCA
	cbrBps    float64
	shortRate float64
	sizes     traffic.SizeDist
	newCC     func() transport.CCA
	openLoop  bool
	// With stop set, the source starts by an event at start and stops
	// by one at stop. Otherwise it starts as it is built and runs on.
	start, stop time.Duration
	// watch lists the [from, to] windows throughput will be asked about.
	watch    [][2]time.Duration
	traceRTT bool
}

// cell is a built cellSpec: an engine from the pool, one link per hop
// and one source per flow, in their lists' order. release hands the
// engine back once the results are read.
type cell struct {
	eng   *sim.Engine
	links []*sim.Link
	src   []*source
	// fading is the fading hop's rate driver, nil without one.
	fading *sim.RateDriver
	seed   int64
	rng    *rand.Rand
	obs    *obs.Scope
}

// source is one built flow: the transport flow it runs or the generator
// behind it, and when it started and stopped. A nil *source is "idle".
type source struct {
	c  *cell
	f  *flow
	cc transport.CCA // nil for "short"

	flow  *transport.Flow // set by begin, except for "short"
	video *traffic.Video
	short *traffic.ShortFlows

	startedAt, stoppedAt time.Duration
	stopped              bool
}

// engines is where every cell gets its engine. A cell hands it back
// (release) once its results are computed, and Reset keeps what the
// cell grew — slot table, packets, generators, sender rings — so the
// next cell on any goroutine starts from that instead of from nothing.
// A reset engine runs exactly as a new one does.
var engines = sync.Pool{New: func() any { return new(sim.Engine) }}

// newCell builds s on an engine from the pool: each hop's link in
// order, its discipline, fault chain and rate driver, then each flow.
// On an error it releases the engine; otherwise the caller does, with
// release, once the cell's results are read.
func newCell(s cellSpec) (*cell, error) {
	c := &cell{
		eng:   engines.Get().(*sim.Engine),
		links: make([]*sim.Link, 0, len(s.hops)),
		src:   make([]*source, 0, len(s.flows)),
		seed:  s.seed,
		obs:   s.obs,
	}
	if s.obs != nil {
		c.eng.RegisterMetrics(s.obs.R())
	}
	for _, h := range s.hops {
		if err := c.addHop(h); err != nil {
			c.release()
			return nil, err
		}
	}
	for i := range s.flows {
		if _, err := c.add(&s.flows[i]); err != nil {
			c.release()
			return nil, err
		}
	}
	return c, nil
}

// release resets the cell's engine and hands it back for the next
// cell, unless the cell's scope has a registry:
// sim.Engine.RegisterMetrics installed pull gauges that keep reading
// the engine after the run returns, so it stays theirs. A tracer-only
// scope keeps no reference and does not block reuse. Nothing of the run
// that the engine handed out — packets, generators, sender rings — may
// be used after the release.
func (c *cell) release() {
	if c.obs.R() != nil {
		return
	}
	c.eng.SetHook(nil)
	c.eng.Reset()
	engines.Put(c.eng)
}

// rand returns the cell's generator, seeded on first use.
func (c *cell) rand() *rand.Rand {
	if c.rng == nil {
		c.rng = c.eng.Rand(c.seed)
	}
	return c.rng
}

// addHop builds one hop's link: its discipline, wrapped in its fault
// chain, wired to the cell's scope, and its rate driver.
func (c *cell) addHop(h hop) error {
	f, err := resolveFaults(h.faultProfile, h.fault)
	if err != nil {
		return err
	}
	if h.name == "" {
		h.name = "bottleneck"
	}
	tr := c.obs.T()
	q := h.discipline()
	if d, ok := q.(*qdisc.FQCoDel); ok {
		d.Trace = tr
	}
	if f != nil {
		ch := f.Build(c.eng, q, h.faultSeed)
		ch.SetTracer(tr)
		q = ch.Qdisc()
	}
	l := sim.NewLink(c.eng, h.name, h.rateBps, h.delay, q)
	if c.obs != nil {
		l.Trace = tr
		l.RegisterMetrics(c.obs.R())
	}
	c.links = append(c.links, l)
	switch {
	case f != nil && f.HasOscillation():
		// ~32 samples per period, clamped so tiny periods stay cheap
		// and huge ones stay smooth.
		interval := time.Duration(f.OscPeriodS * float64(time.Second) / 32)
		interval = min(max(interval, 5*time.Millisecond), 100*time.Millisecond)
		sim.DriveRate(c.eng, l, interval, f.RateFunc(h.rateBps))
	case h.fading:
		c.fading = sim.DriveRate(c.eng, l, 100*time.Millisecond, sim.CellularTrace(c.rand(), h.rateBps))
	}
	return nil
}

// discipline builds the hop's queue discipline, without faults.
func (h hop) discipline() sim.Qdisc {
	buf := h.buf
	switch {
	case buf > 0:
	case h.bufRTT > 0:
		return qdisc.NewDropTailBDP(h.rateBps, h.bufRTT, 1)
	default:
		bdp := h.bdp
		if bdp <= 0 {
			bdp = 1
		}
		buf = max(int(h.rateBps/8*(2*h.delay).Seconds()*bdp), 4*sim.MSS)
	}
	shape := h.shapeBps
	if shape <= 0 {
		shape = h.rateBps / 2
	}
	switch h.queue {
	case QueueFQ:
		return qdisc.NewDRR(qdisc.ByFlow, sim.MSS, buf)
	case QueueFQCoDel:
		return qdisc.NewFQCoDel(qdisc.ByFlow, buf)
	case QueueSFQ:
		return qdisc.NewSFQ(buf)
	case QueueUserIso:
		return qdisc.NewUserIsolation(shape, 16*sim.MSS, buf)
	case QueueShaper:
		return qdisc.NewTokenBucketShaper(shape, buf)
	case QueuePolicer:
		return qdisc.NewTokenBucketPolicer(shape)
	default:
		return qdisc.NewDropTail(buf)
	}
}

// add builds one flow onto the cell. It resolves the source's
// controller first, so a refused flow schedules nothing, then starts
// the source now or schedules its start and stop. newCell adds the
// spec's flows; a caller that must act between the hops and a flow
// (attach a checker, start its own sender) adds that flow itself.
func (c *cell) add(f *flow) (*source, error) {
	cc := f.cc
	switch f.kind {
	case "idle":
		c.src = append(c.src, nil)
		return nil, nil
	case "", "short":
	case "video", "onoff":
		cc = cca.NewCubicCC()
	case "cbr":
		cc = cca.NewCBR(f.cbrBps)
	default:
		var err error
		if cc, err = cca.New(f.kind); err != nil {
			return nil, fmt.Errorf("cross traffic %q: %w", f.kind, err)
		}
	}
	s := &source{c: c, f: f, cc: cc}
	c.src = append(c.src, s)
	if f.stop > 0 {
		c.eng.ScheduleAt(f.start, s.begin)
		c.eng.ScheduleAt(f.stop, s.end)
	} else {
		s.begin()
	}
	return s, nil
}

// route returns the links a path crosses and its acks' return delay.
func (c *cell) route(path []int) ([]*sim.Link, time.Duration) {
	if path == nil {
		return c.links[:1:1], c.links[0].Delay()
	}
	links := make([]*sim.Link, len(path))
	var ret time.Duration
	for i, h := range path {
		links[i] = c.links[h]
		ret += links[i].Delay()
	}
	return links, ret
}

// begin starts the source on its path and watches its windows.
func (s *source) begin() {
	c, f := s.c, s.f
	s.startedAt = c.eng.Now()
	path, ret := c.route(f.path)
	if f.kind == "short" {
		newCC := f.newCC
		if newCC == nil {
			newCC = func() transport.CCA { return cca.NewRenoCC() }
		}
		s.short = traffic.NewShortFlows(c.eng, traffic.ShortFlowsConfig{
			ArrivalRate: f.shortRate,
			Sizes:       f.sizes,
			Path:        path,
			ReturnDelay: ret,
			UserID:      f.user,
			NewCC:       newCC,
			BaseFlowID:  f.id,
			Rand:        c.rand(),
			OpenLoop:    f.openLoop,
		})
		return
	}
	cfg := transport.FlowConfig{
		ID:          f.id,
		UserID:      f.user,
		Path:        path,
		ReturnDelay: ret,
		CC:          s.cc,
		TraceRTT:    f.traceRTT,
		Trace:       c.obs.T(),
		Metrics:     c.obs.R(),
	}
	switch f.kind {
	case "video":
		s.video = traffic.NewVideo(c.eng, cfg)
		s.flow = s.video.Flow
	case "onoff":
		on := 500 * time.Millisecond
		s.flow = traffic.NewOnOff(c.eng, cfg, traffic.OnOffConfig{On: on, Off: on}).Flow
	default:
		cfg.Backlogged = true
		s.flow = transport.NewFlow(c.eng, cfg)
		s.flow.Start()
	}
	for _, w := range f.watch {
		s.flow.Watch(w[0], w[1])
	}
}

// end stops the offered load; data already in flight drains on its own.
func (s *source) end() {
	s.stoppedAt, s.stopped = s.c.eng.Now(), true
	switch {
	case s.short != nil:
		s.short.Stop()
	case s.flow != nil:
		if s.video != nil {
			s.video.Stop()
		}
		s.flow.Sender.SetBacklogged(false)
	}
}

// throughput is the achieved bits/s over a watched [from, to). Short
// flows have no single sender to sample: theirs is the supplied bytes
// averaged over the source's whole active interval, for any window
// that begins inside it.
func (s *source) throughput(from, to time.Duration) float64 {
	switch {
	case s == nil:
	case s.flow != nil:
		return s.flow.Throughput(from, to)
	case s.short != nil:
		end := s.stoppedAt
		if !s.stopped {
			end = s.c.eng.Now()
		}
		if from < end {
			return float64(s.short.TotalBytes) * 8 / (end - s.startedAt).Seconds()
		}
	}
	return 0
}

// phaseSpan is one cross-traffic phase laid out on the run's clock.
type phaseSpan struct {
	kind       string
	start, end time.Duration
}

// phaseMeasure is one phase's outcome, scored over the phase minus its
// settle margin: a transition leaks the previous phase's queue.
type phaseMeasure struct {
	phaseSpan
	crossBps, mainBps float64
	eta               nimbus.Verdict // zero without a probe
}

// phaseFlows is the flow list of a phased cell: main first, started
// inline and watched over every span minus its settle margin, then each
// span's kind, started at the span's start and stopped at its end. An
// idle span schedules nothing. Cross flows are numbered 100+i and short
// flows from 1000+1000i, and every "short" span draws from the cell's
// one generator.
func phaseFlows(main flow, spans []phaseSpan, settle func(phase time.Duration) time.Duration, cbrBps float64) []flow {
	flows := make([]flow, 1, 1+len(spans))
	for i, sp := range spans {
		w := [2]time.Duration{sp.start + settle(sp.end-sp.start), sp.end}
		main.watch = append(main.watch, w)
		id := 100 + i
		if sp.kind == "short" {
			id = 1000 + 1000*i
		}
		flows = append(flows, flow{
			id: id, user: crossUser, kind: sp.kind, shortRate: 6, cbrBps: cbrBps,
			start: sp.start, stop: sp.end, watch: [][2]time.Duration{w},
		})
	}
	flows[0] = main
	return flows
}

// runPhases runs a cell built from phaseFlows to the last span's end
// and scores every phase; est is the main flow's estimator when it is a
// probe, else nil.
func (c *cell) runPhases(spans []phaseSpan, settle func(phase time.Duration) time.Duration, est *nimbus.Estimator) []phaseMeasure {
	c.eng.Run(spans[len(spans)-1].end)
	out := make([]phaseMeasure, len(spans))
	for i, sp := range spans {
		from := sp.start + settle(sp.end-sp.start)
		out[i] = phaseMeasure{
			phaseSpan: sp,
			crossBps:  c.src[1+i].throughput(from, sp.end),
			mainBps:   c.src[0].flow.Throughput(from, sp.end),
		}
		if est != nil {
			out[i].eta = est.Verdict(from, sp.end)
		}
	}
	return out
}

// paperProbe is the controller every probe cell runs as its main
// flow: the paper's Nimbus configuration at the cell's rate.
func paperProbe(rateBps float64) *nimbus.CCA {
	return nimbus.NewCCA(nimbus.PaperConfig(rateBps))
}

// probeAgainst is the whole-run measurement: probe is flow 1, built
// first, cross is built after it, the cell runs to `to` and the verdict
// is scored over [from, to).
func probeAgainst(s cellSpec, probe *nimbus.CCA, cross flow, from, to time.Duration) (nimbus.Verdict, error) {
	s.flows = []flow{{id: 1, user: 1, cc: probe}, cross}
	c, err := newCell(s)
	if err != nil {
		return nimbus.Verdict{}, err
	}
	defer c.release()
	c.eng.Run(to)
	return probe.Est.Verdict(from, to), nil
}

// resolveFaults turns a hop's two fault inputs into one config. An
// inline config wins when non-nil — it is validated here, and a zero
// one is a clean link whatever the name says (it builds no injector);
// otherwise the name is looked up in the registry, the empty name being
// a clean link.
func resolveFaults(name string, inline *faults.Config) (*faults.Config, error) {
	if inline != nil {
		if err := inline.Validate(); err != nil {
			return nil, err
		}
		return inline, nil
	}
	if name == "" {
		return nil, nil
	}
	c, err := faults.Lookup(name)
	if err != nil {
		return nil, err
	}
	return &c, nil
}
