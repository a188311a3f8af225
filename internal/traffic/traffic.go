// Package traffic provides the workload generators behind the paper's
// experiments: ABR video streams (application-limited, the dominant
// byte source on today's Internet per §2.2), Poisson arrivals of
// heavy-tailed short flows (web traffic), churning user populations,
// scheduled cross-traffic phases, and on-off sources. (A persistently
// backlogged bulk flow is a transport.FlowConfig with Backlogged set.)
package traffic

import (
	"math"
	"math/rand"
	"time"

	"repro/internal/sim"
	"repro/internal/transport"
)

// SizeDist draws flow sizes in bytes.
type SizeDist interface {
	Sample(rng *rand.Rand) int64
}

// BoundedPareto is a heavy-tailed size distribution truncated to
// [Min, Max] bytes with tail index Alpha, the standard model for web
// object sizes.
type BoundedPareto struct {
	Min, Max int64
	Alpha    float64
}

// Sample implements SizeDist via inverse-CDF sampling.
func (b BoundedPareto) Sample(rng *rand.Rand) int64 {
	lo := float64(b.Min)
	hi := float64(b.Max)
	a := b.Alpha
	if a <= 0 {
		a = 1.2
	}
	u := rng.Float64()
	// Inverse CDF of the bounded Pareto.
	x := math.Pow(-(u*math.Pow(hi, a)-u*math.Pow(lo, a)-math.Pow(hi, a))/(math.Pow(lo*hi, a)), -1/a)
	if x < lo {
		x = lo
	}
	if x > hi {
		x = hi
	}
	return int64(x)
}

// ShortSizes and LongSizes are the flow-size distributions of the
// churn process, shared by its packet-level (Churn) and fluid
// (core's manyflow aggregate) forms; ShortSizes — mostly a handful of
// packets, occasionally large, matching the "most flows are short"
// observation — is also ShortFlows' default.
var (
	ShortSizes = BoundedPareto{Min: 6 * 1024, Max: 3 << 20, Alpha: 1.2}
	LongSizes  = BoundedPareto{Min: 4 << 20, Max: 64 << 20, Alpha: 1.5}
)

// FixedSize always returns the same size.
type FixedSize int64

// Sample implements SizeDist.
func (f FixedSize) Sample(*rand.Rand) int64 { return int64(f) }

// ShortFlowsConfig parameterizes a Poisson short-flow generator.
type ShortFlowsConfig struct {
	// ArrivalRate is the mean flow arrival rate per second.
	ArrivalRate float64
	// Sizes draws per-flow sizes (default ShortSizes).
	Sizes SizeDist
	// Path/ReturnDelay/UserID as in transport.FlowConfig.
	Path        []*sim.Link
	ReturnDelay time.Duration
	UserID      int
	// NewCC constructs the per-flow controller (default Reno via the
	// caller; required).
	NewCC func() transport.CCA
	// BaseFlowID numbers generated flows upward from this ID.
	BaseFlowID int
	// Rand is the randomness source (required for determinism).
	Rand *rand.Rand
	// OpenLoop makes the flows one-shot (no retransmission): the
	// aggregate's offered load is exogenous, as on an overloaded
	// peering link carrying fire-and-forget web bursts.
	OpenLoop bool
}

// ShortFlows generates short transport flows with Poisson arrivals.
type ShortFlows struct {
	cfg     ShortFlowsConfig
	eng     *sim.Engine
	nextID  int
	stopped bool

	// Started and Completed count generated and finished flows.
	Started   int
	Completed int
	// TotalBytes counts supplied bytes across flows.
	TotalBytes int64
	// FCTs records per-flow completion times in seconds.
	FCTs []float64
	// Active tracks currently running flows.
	active map[int]*transport.Flow
}

// NewShortFlows starts the generator immediately.
func NewShortFlows(eng *sim.Engine, cfg ShortFlowsConfig) *ShortFlows {
	if cfg.Sizes == nil {
		cfg.Sizes = ShortSizes
	}
	if cfg.ArrivalRate <= 0 {
		cfg.ArrivalRate = 1
	}
	g := &ShortFlows{cfg: cfg, eng: eng, nextID: cfg.BaseFlowID, active: make(map[int]*transport.Flow)}
	g.scheduleNext()
	return g
}

// Stop ceases new arrivals (running flows complete naturally).
func (g *ShortFlows) Stop() { g.stopped = true }

func (g *ShortFlows) scheduleNext() {
	if g.stopped {
		return
	}
	// Exponential inter-arrival.
	gap := time.Duration(g.cfg.Rand.ExpFloat64() / g.cfg.ArrivalRate * float64(time.Second))
	g.eng.Schedule(gap, g.arrive)
}

func (g *ShortFlows) arrive() {
	if g.stopped {
		return
	}
	id := g.nextID
	g.nextID++
	size := g.cfg.Sizes.Sample(g.cfg.Rand)
	start := g.eng.Now()
	f := transport.NewFlow(g.eng, transport.FlowConfig{
		ID:          id,
		UserID:      g.cfg.UserID,
		Path:        g.cfg.Path,
		ReturnDelay: g.cfg.ReturnDelay,
		CC:          g.cfg.NewCC(),
		OpenLoop:    g.cfg.OpenLoop,
	})
	f.Sender.OnComplete = func(now time.Duration) {
		g.Completed++
		g.FCTs = append(g.FCTs, (now - start).Seconds())
		delete(g.active, id)
	}
	g.active[id] = f
	g.Started++
	g.TotalBytes += size
	f.Sender.Supply(size)
	g.scheduleNext()
}

// ActiveFlows returns the number of flows still transferring.
func (g *ShortFlows) ActiveFlows() int { return len(g.active) }

// OnOffConfig parameterizes an on-off bulk source: backlogged for On,
// silent for Off, repeating.
type OnOffConfig struct {
	On, Off time.Duration
}

// OnOff drives a flow between backlogged and idle states, a simple
// model of bursty application traffic (§5.2's jitter discussion).
type OnOff struct {
	Flow *transport.Flow
	cfg  OnOffConfig
	eng  *sim.Engine
}

// NewOnOff creates the flow and starts in the On state.
func NewOnOff(eng *sim.Engine, fcfg transport.FlowConfig, cfg OnOffConfig) *OnOff {
	if cfg.On <= 0 {
		cfg.On = time.Second
	}
	if cfg.Off <= 0 {
		cfg.Off = time.Second
	}
	fcfg.Backlogged = false
	o := &OnOff{Flow: transport.NewFlow(eng, fcfg), cfg: cfg, eng: eng}
	o.turnOn()
	return o
}

func (o *OnOff) turnOn() {
	o.Flow.Sender.SetBacklogged(true)
	o.eng.Schedule(o.cfg.On, o.turnOff)
}

func (o *OnOff) turnOff() {
	o.Flow.Sender.SetBacklogged(false)
	o.eng.Schedule(o.cfg.Off, o.turnOn)
}
