// Package core assembles the paper's experiments from the substrate
// packages: scenario construction helpers (dumbbell topologies with
// selectable queue disciplines), the Figure 1 isolation study, the
// Figure 2 M-Lab pipeline driver, the Figure 3 elasticity
// proof-of-concept, and the ablation studies DESIGN.md lists. Both the
// command-line tools and the benchmark harness call into this package
// so the printed tables come from a single implementation.
package core

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/qdisc"
	"repro/internal/sim"
	"repro/internal/transport"
)

// QueueKind selects the bottleneck queue discipline.
type QueueKind string

// Queue kinds supported by scenario construction.
const (
	QueueDropTail QueueKind = "droptail"
	QueueFQ       QueueKind = "fq"       // per-flow DRR fair queueing
	QueueFQCoDel  QueueKind = "fq_codel" // per-flow DRR + per-flow CoDel
	QueueSFQ      QueueKind = "sfq"      // stochastic fair queueing
	QueueUserIso  QueueKind = "user-iso" // per-user throttling + isolation
	QueueShaper   QueueKind = "shaper"   // aggregate token-bucket shaper
	QueuePolicer  QueueKind = "policer"  // aggregate token-bucket policer
)

// LinkSpec describes a bottleneck link.
type LinkSpec struct {
	// RateBps is the link rate in bits/s.
	RateBps float64
	// OneWayDelay is the propagation delay each way; the base RTT is
	// twice this.
	OneWayDelay time.Duration
	// Queue selects the discipline (default droptail).
	Queue QueueKind
	// BufferBDP sizes droptail/FQ buffers in bandwidth-delay products
	// (default 1).
	BufferBDP float64
	// ShapeRateBps is the shaper/policer/per-user rate where
	// applicable (default RateBps/2).
	ShapeRateBps float64
	// Faults, when non-nil, wraps the discipline in the config's
	// impairment chain (loss, reordering, jitter, outages), seeded by
	// FaultSeed for reproducible runs, and drives the link rate with
	// the config's oscillation when it has one.
	Faults    *faults.Config
	FaultSeed int64
	// Obs, when non-nil, receives the scenario's trace events and
	// metrics registrations; nil disables both at a branch per event.
	// Excluded from JSON so declarative scenario specs and results stay
	// serializable.
	Obs *obs.Scope `json:"-"`
}

func (s LinkSpec) norm() LinkSpec {
	if s.Queue == "" {
		s.Queue = QueueDropTail
	}
	if s.BufferBDP <= 0 {
		s.BufferBDP = 1
	}
	if s.ShapeRateBps <= 0 {
		s.ShapeRateBps = s.RateBps / 2
	}
	return s
}

// RTT returns the base round-trip time of the link.
func (s LinkSpec) RTT() time.Duration { return 2 * s.OneWayDelay }

// BuildQdisc constructs the discipline for the spec, wrapped in the
// spec's fault chain when one is set; the chain draws from eng's
// generators. AQM disciplines and fault injectors are pointed at the
// spec's tracer so their drops and activations surface in the event
// stream.
func BuildQdisc(eng *sim.Engine, s LinkSpec) sim.Qdisc {
	s = s.norm()
	q := buildDiscipline(s)
	if d, ok := q.(*qdisc.FQCoDel); ok {
		d.Trace = s.Obs.T()
	}
	if s.Faults != nil {
		ch := s.Faults.Build(eng, q, s.FaultSeed)
		ch.SetTracer(s.Obs.T())
		q = ch.Qdisc()
	}
	return q
}

func buildDiscipline(s LinkSpec) sim.Qdisc {
	s = s.norm()
	rtt := s.RTT()
	bufBytes := int(s.RateBps / 8 * rtt.Seconds() * s.BufferBDP)
	if bufBytes < 4*sim.MSS {
		bufBytes = 4 * sim.MSS
	}
	switch s.Queue {
	case QueueFQ:
		return qdisc.NewDRR(qdisc.ByFlow, sim.MSS, bufBytes)
	case QueueFQCoDel:
		return qdisc.NewFQCoDel(qdisc.ByFlow, bufBytes)
	case QueueSFQ:
		return qdisc.NewSFQ(bufBytes)
	case QueueUserIso:
		return qdisc.NewUserIsolation(s.ShapeRateBps, 16*sim.MSS, bufBytes)
	case QueueShaper:
		return qdisc.NewTokenBucketShaper(s.ShapeRateBps, bufBytes)
	case QueuePolicer:
		return qdisc.NewTokenBucketPolicer(s.ShapeRateBps)
	default:
		return qdisc.NewDropTail(bufBytes)
	}
}

// Dumbbell is a single-bottleneck scenario: every flow traverses one
// shared link; acknowledgments return after the same propagation
// delay.
type Dumbbell struct {
	Eng  *sim.Engine
	Link *sim.Link
	Spec LinkSpec

	// path is the one-hop route every flow shares.
	path []*sim.Link
}

// engines is where every cell gets its engine. A cell hands it back
// (releaseEngine) once its results are computed, and Reset keeps what
// the cell grew — slot table, packets, generators, sender rings — so
// the next cell on any goroutine starts from that instead of from
// nothing. A reset engine runs exactly as a new one does.
var engines = sync.Pool{New: func() any { return new(sim.Engine) }}

// newEngine returns an engine ready for a fresh run.
func newEngine() *sim.Engine { return engines.Get().(*sim.Engine) }

// releaseEngine resets eng and hands it back for the next cell, unless
// the run's scope has a registry: sim.Engine.RegisterMetrics installed
// pull gauges that keep reading the engine after the run returns, so
// it stays theirs. A tracer-only scope keeps no reference and does not
// block reuse. Nothing of the run that the engine handed out — packets,
// generators, sender rings — may be used after the release.
func releaseEngine(eng *sim.Engine, sc *obs.Scope) {
	if sc.R() != nil {
		return
	}
	eng.SetHook(nil)
	eng.Reset()
	engines.Put(eng)
}

// NewDumbbell constructs the scenario on an engine from the pool; the
// caller releases it once the cell's results are computed. When the
// spec carries an observability scope, the engine, link, and every
// flow built through FlowConfig are wired into it. A rate oscillation
// in the spec's faults starts here, before any flow exists.
func NewDumbbell(spec LinkSpec) *Dumbbell {
	spec = spec.norm()
	eng := newEngine()
	link := sim.NewLink(eng, "bottleneck", spec.RateBps, spec.OneWayDelay, BuildQdisc(eng, spec))
	wireObs(spec.Obs, eng, link)
	if f := spec.Faults; f != nil && f.HasOscillation() {
		// ~32 samples per period, clamped so tiny periods stay cheap
		// and huge ones stay smooth.
		interval := time.Duration(f.OscPeriodS * float64(time.Second) / 32)
		if interval < 5*time.Millisecond {
			interval = 5 * time.Millisecond
		}
		if interval > 100*time.Millisecond {
			interval = 100 * time.Millisecond
		}
		sim.DriveRate(eng, link, interval, f.RateFunc(spec.RateBps))
	}
	return &Dumbbell{Eng: eng, Link: link, Spec: spec, path: []*sim.Link{link}}
}

// release hands the dumbbell's engine back to the pool (releaseEngine).
func (d *Dumbbell) release() { releaseEngine(d.Eng, d.Spec.Obs) }

// FlowConfig returns a transport config for a flow through the
// bottleneck with the given controller.
func (d *Dumbbell) FlowConfig(id, userID int, cc transport.CCA) transport.FlowConfig {
	sc := d.Spec.Obs
	return transport.FlowConfig{
		ID:          id,
		UserID:      userID,
		Path:        d.path,
		ReturnDelay: d.Spec.OneWayDelay,
		CC:          cc,
		Trace:       sc.T(),
		Metrics:     sc.R(),
	}
}

// AddBulk adds a persistently backlogged flow.
func (d *Dumbbell) AddBulk(id, userID int, cc transport.CCA) *transport.Flow {
	cfg := d.FlowConfig(id, userID, cc)
	cfg.Backlogged = true
	f := transport.NewFlow(d.Eng, cfg)
	f.Start()
	return f
}

// Run advances the scenario to the given virtual time.
func (d *Dumbbell) Run(until time.Duration) { d.Eng.Run(until) }

// FmtBps renders a rate in human units.
func FmtBps(b float64) string {
	switch {
	case b >= 1e9:
		return fmt.Sprintf("%.2f Gbit/s", b/1e9)
	case b >= 1e6:
		return fmt.Sprintf("%.2f Mbit/s", b/1e6)
	case b >= 1e3:
		return fmt.Sprintf("%.2f kbit/s", b/1e3)
	default:
		return fmt.Sprintf("%.0f bit/s", b)
	}
}
