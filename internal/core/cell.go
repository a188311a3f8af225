package core

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/cca"
	"repro/internal/faults"
	"repro/internal/nimbus"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/traffic"
	"repro/internal/transport"
)

// The cell every probe experiment is built from: a main flow against a
// named kind of cross traffic on a Dumbbell. Experiments differ only in
// the values they pass — kinds, flow IDs, when traffic starts and stops,
// which window is scored.

// crossUser owns every cross-traffic flow: the main flow's own user, so
// per-user disciplines do not separate the two.
const crossUser = 1

// crossSpec names one cross-traffic generator and what it runs with.
type crossSpec struct {
	// kind is a traffic.PhaseKinds() kind: a CCA name (one backlogged
	// flow under that controller), "video", "short", "cbr" or "idle".
	kind   string
	flowID int // the backlogged, video or CBR flow
	// A "short" generator numbers its flows from shortBase and draws
	// shortRate arrivals per second, and their sizes, from rng.
	shortBase int
	shortRate float64
	rng       *rand.Rand
	cbrBps    float64 // a "cbr" flow's rate
}

// crossGen is one installed generator. A nil *crossGen is the "idle"
// kind: start does nothing and throughput is zero.
type crossGen struct {
	d    *Dumbbell
	spec crossSpec
	cc   transport.CCA // nil for "short"

	flow  *transport.Flow // set by start, except for "short"
	video *traffic.Video
	short *traffic.ShortFlows
	// windows are the [from, to] spans throughput will be asked about,
	// watched on the flow when start creates it.
	windows [][2]time.Duration

	startedAt, stoppedAt time.Duration
	stopped              bool
}

// installCross validates the kind and constructs its controller now,
// while an error can still be returned, but starts nothing: the caller
// either calls start before Run (traffic for the whole run) or
// schedules start and stop at phase boundaries. Those are different
// programs — the engine orders same-time events by (at, seq), so a
// start scheduled at t=0 runs after everything started inline — and
// each experiment keeps the one its results were recorded with.
func (d *Dumbbell) installCross(spec crossSpec) (*crossGen, error) {
	var cc transport.CCA
	switch spec.kind {
	case "idle":
		return nil, nil
	case "short":
	case "video":
		cc = cca.NewCubicCC()
	case "cbr":
		cc = cca.NewCBR(spec.cbrBps)
	default:
		var err error
		if cc, err = cca.New(spec.kind); err != nil {
			return nil, fmt.Errorf("cross traffic %q: %w", spec.kind, err)
		}
	}
	return &crossGen{d: d, spec: spec, cc: cc}, nil
}

func (g *crossGen) start() {
	if g == nil {
		return
	}
	d := g.d
	g.startedAt = d.Eng.Now()
	switch g.spec.kind {
	case "video":
		g.video = traffic.NewVideo(d.Eng, d.FlowConfig(g.spec.flowID, crossUser, g.cc))
		g.flow = g.video.Flow
	case "short":
		g.short = traffic.NewShortFlows(d.Eng, traffic.ShortFlowsConfig{
			ArrivalRate: g.spec.shortRate,
			Path:        d.path,
			ReturnDelay: d.Spec.OneWayDelay,
			UserID:      crossUser,
			NewCC:       func() transport.CCA { return cca.NewRenoCC() },
			BaseFlowID:  g.spec.shortBase,
			Rand:        g.spec.rng,
		})
	default:
		g.flow = d.AddBulk(g.spec.flowID, crossUser, g.cc)
	}
	if g.flow != nil {
		for _, w := range g.windows {
			g.flow.Watch(w[0], w[1])
		}
	}
}

// watch registers [from, to] for throughput; call it before start.
func (g *crossGen) watch(from, to time.Duration) {
	if g != nil {
		g.windows = append(g.windows, [2]time.Duration{from, to})
	}
}

// stop ends the offered load; data already in flight drains on its own.
func (g *crossGen) stop() {
	g.stoppedAt, g.stopped = g.d.Eng.Now(), true
	switch {
	case g.short != nil:
		g.short.Stop()
	case g.flow != nil:
		if g.video != nil {
			g.video.Stop()
		}
		g.flow.Sender.SetBacklogged(false)
	}
}

// throughput is the achieved bits/s over a watched [from, to). Short
// flows have no single sender to sample: theirs is the supplied bytes
// averaged over the generator's whole active interval, for any window
// that begins inside it.
func (g *crossGen) throughput(from, to time.Duration) float64 {
	switch {
	case g == nil:
	case g.flow != nil:
		return g.flow.Throughput(from, to)
	case g.short != nil:
		end := g.stoppedAt
		if !g.stopped {
			end = g.d.Eng.Now()
		}
		if from < end {
			return float64(g.short.TotalBytes) * 8 / (end - g.startedAt).Seconds()
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

// runPhases gives each span's kind its turn against the main flow —
// started at the span's start, stopped at its end — runs the cell to
// the last span's end and scores every phase; est is the main flow's
// estimator when it is a probe, else nil. Cross flows are numbered
// 100+i and short flows from 1000+1000i; every "short" phase draws
// from the one rng.
func runPhases(d *Dumbbell, main *transport.Flow, est *nimbus.Estimator, spans []phaseSpan,
	settle func(phase time.Duration) time.Duration, rng *rand.Rand) ([]phaseMeasure, error) {
	gens := make([]*crossGen, len(spans))
	for i, sp := range spans {
		g, err := d.installCross(crossSpec{
			kind: sp.kind, flowID: 100 + i,
			shortBase: 1000 + 1000*i, shortRate: 6, rng: rng,
			cbrBps: 0.4 * d.Spec.RateBps,
		})
		if err != nil {
			return nil, err
		}
		from := sp.start + settle(sp.end-sp.start)
		main.Watch(from, sp.end)
		if g != nil {
			g.watch(from, sp.end)
			d.Eng.ScheduleAt(sp.start, g.start)
			d.Eng.ScheduleAt(sp.end, g.stop)
		}
		gens[i] = g
	}
	d.Run(spans[len(spans)-1].end)

	out := make([]phaseMeasure, len(spans))
	for i, sp := range spans {
		from := sp.start + settle(sp.end-sp.start)
		out[i] = phaseMeasure{
			phaseSpan: sp,
			crossBps:  gens[i].throughput(from, sp.end),
			mainBps:   main.Throughput(from, sp.end),
		}
		if est != nil {
			out[i].eta = est.Verdict(from, sp.end)
		}
	}
	return out, nil
}

// resolveFaults turns a cell's two fault inputs into the one config
// its LinkSpec carries. An inline config wins when non-nil — it is
// validated here, and a zero one is a clean link whatever the name
// says (it builds no injector); otherwise the name is looked up in the
// registry, the empty name being a clean link.
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

// wireObs points links (and, when non-nil, their engine) at a run's
// scope: the tracer for packet events, the registry for counters.
func wireObs(sc *obs.Scope, eng *sim.Engine, links ...*sim.Link) {
	if sc == nil {
		return
	}
	if eng != nil {
		eng.RegisterMetrics(sc.R())
	}
	for _, l := range links {
		l.Trace = sc.T()
		l.RegisterMetrics(sc.R())
	}
}
