package transport

import (
	"fmt"
	"time"

	"repro/internal/obs"
	"repro/internal/sim"
)

// FlowConfig describes one transport flow through the emulated network.
type FlowConfig struct {
	// ID identifies the flow (used by per-flow queue disciplines). IDs
	// should be unique within a scenario.
	ID int
	// UserID identifies the subscriber (used by per-user isolation).
	UserID int
	// Path is the forward path the flow's data packets traverse.
	Path []*sim.Link
	// ReturnDelay is the fixed one-way delay of the acknowledgment
	// path (acknowledgments do not queue).
	ReturnDelay time.Duration
	// CC is the congestion controller. Required.
	CC CCA
	// Backlogged starts the flow persistently backlogged.
	Backlogged bool
	// OpenLoop disables retransmission: lost bytes are forgotten, and
	// completion fires once everything supplied has been transmitted
	// once and either acknowledged or declared lost. This models
	// one-shot datagram traffic (or a closed-loop analysis that
	// treats the offered load as exogenous).
	OpenLoop bool
	// TraceRTT retains per-ack RTT samples on the sender.
	TraceRTT bool
	// NoDeliverySeries has no effect. A flow keeps no per-ack delivery
	// history (Throughput reads the instants passed to Watch), so there
	// is nothing to skip; the field stays while a caller still sets it.
	NoDeliverySeries bool
	// Trace, if non-nil, receives the sender's event stream. It is also
	// offered to the congestion controller when it implements
	// obs.TraceSetter, so CCA-internal transitions land in the same log.
	Trace obs.Tracer
	// Metrics, if non-nil, gets the sender's per-flow gauges and RTT
	// histogram registered at flow creation.
	Metrics *obs.Registry
}

// Flow couples a Sender and Receiver over the emulated network.
type Flow struct {
	Sender   *Sender
	Receiver *Receiver
}

// NewFlow wires up a flow on the engine. It panics on invalid
// configuration (nil CC), since that is a programming error.
func NewFlow(eng *sim.Engine, cfg FlowConfig) *Flow {
	if cfg.CC == nil {
		panic(fmt.Sprintf("transport: flow %d: nil congestion controller", cfg.ID))
	}
	s := &Sender{
		eng:      eng,
		flowID:   cfg.ID,
		userID:   cfg.UserID,
		path:     cfg.Path,
		cc:       cfg.CC,
		rings:    sim.SlicesOf[sentInfo](eng),
		openLoop: cfg.OpenLoop,
		nextDue:  noMark,
		TraceRTT: cfg.TraceRTT,
		Trace:    cfg.Trace,
		startAt:  eng.Now(),
	}
	s.trySendFn = s.trySend
	s.onRTOFn = s.onRTO
	s.stateSince = eng.Now()
	if cfg.Trace != nil {
		if ts, ok := cfg.CC.(obs.TraceSetter); ok {
			ts.SetTracer(cfg.Trace)
		}
	}
	if cfg.Metrics != nil {
		s.RegisterMetrics(cfg.Metrics)
	}
	r := &Receiver{eng: eng, sender: s, ret: eng.DelayLine(cfg.ReturnDelay)}
	s.dest = r
	f := &Flow{Sender: s, Receiver: r}
	if cfg.Backlogged {
		s.SetBacklogged(true)
	}
	return f
}

// Start triggers the first transmission attempt (needed when the flow
// was configured backlogged before the engine ran, or after Supply
// calls made outside engine events).
func (f *Flow) Start() { f.Sender.trySend() }

// Watch registers [from, to] as a window Throughput will be asked
// about. The flow keeps the bytes delivered at the watched instants
// only, not a per-ack history, so Watch must be called no later than
// from; it panics otherwise.
func (f *Flow) Watch(from, to time.Duration) {
	f.Sender.watch(from)
	if to > from {
		f.Sender.watch(to)
	}
}

// Throughput returns the flow's average delivery rate in bits/s over
// the watched window [from, to] of virtual time: the bytes acknowledged
// after from and at or before to, over to - from. An empty or inverted
// window yields 0. It panics on a window never passed to Watch.
func (f *Flow) Throughput(from, to time.Duration) float64 {
	if to <= from {
		return 0
	}
	v0 := float64(f.Sender.deliveredAt(from))
	v1 := float64(f.Sender.deliveredAt(to))
	return (v1 - v0) / (to - from).Seconds() * 8
}
