package core

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"repro/internal/cca"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/qdisc"
	"repro/internal/sim"
	"repro/internal/sim/check"
	"repro/internal/stats"
	"repro/internal/traffic"
	"repro/internal/transport"
)

// manyFlowUserBase is the first background-subscriber UserID; the
// victim pair occupies users 1 and 2.
const manyFlowUserBase = 10

// manyFlowWarmupFrac is the initial fraction of the cell left out of
// the victim pair's averages.
const manyFlowWarmupFrac = 0.25

// churnThink is a background user's mean think time between transfers,
// churnLongFrac the probability that a transfer is a long one.
const (
	churnThink    = time.Second
	churnLongFrac = 0.1
)

// ManyFlowConfig parameterizes the population-scale contention cell: a
// fig1-style victim pair (two backlogged flows under different CCAs,
// each its own subscriber) embedded among N background subscribers
// behind per-user isolation, every background user running a churn
// process of short and long transfers. The cell answers the paper's
// question at fleet scale: with operator isolation in place, does the
// victim's allocation stay pinned to its scheduled share regardless of
// how many neighbours contend or which CCAs they run?
type ManyFlowConfig struct {
	// CCA1/CCA2 name the victim pair's controllers (default reno/cubic).
	CCA1, CCA2 string
	// Users is the background subscriber count (default 100); the cell
	// holds Users+2 subscribers in total.
	Users int
	// RateBps is the bottleneck rate. Default scales with population:
	// 2 Mbit/s of fair share per subscriber.
	RateBps float64
	// OneWayDelay is the propagation delay (default 10ms -> 20ms RTT).
	OneWayDelay time.Duration
	// BufferBDP sizes each subscriber's queue in plan-rate
	// bandwidth-delay products (default 2).
	BufferBDP float64
	// Duration is the cell length (default 30s).
	Duration time.Duration
	// Seed drives the churn randomness. Each background user's stream
	// is derived from it independently, so the population is
	// byte-replayable.
	Seed int64
	// FluidAbove, when positive, switches background users with index
	// >= FluidAbove to the fluid aggregate: instead of per-flow
	// transport state, their combined load becomes one AIMD-paced
	// packet injector spread round-robin across their user IDs. The
	// scheduler still sees per-user queues, so victim isolation
	// dynamics are preserved at a fraction of the event cost.
	FluidAbove int
	// Check attaches the engine invariant checker (event order, pool
	// hygiene, link conservation) and fails the run on any violation.
	Check bool
	// Obs, when non-nil, receives trace events and metric
	// registrations.
	Obs *obs.Scope `json:"-"`
}

func (c ManyFlowConfig) norm() ManyFlowConfig {
	if c.CCA1 == "" {
		c.CCA1 = "reno"
	}
	if c.CCA2 == "" {
		c.CCA2 = "cubic"
	}
	if c.Users <= 0 {
		c.Users = 100
	}
	if c.RateBps <= 0 {
		c.RateBps = 2e6 * float64(c.Users+2)
	}
	if c.OneWayDelay <= 0 {
		c.OneWayDelay = 10 * time.Millisecond
	}
	if c.BufferBDP <= 0 {
		c.BufferBDP = 2
	}
	if c.Duration <= 0 {
		c.Duration = 30 * time.Second
	}
	if c.FluidAbove < 0 || c.FluidAbove > c.Users {
		c.FluidAbove = 0
	}
	return c
}

// perUserRateBps is every subscriber's plan cap: 4x the fair share.
func (c ManyFlowConfig) perUserRateBps() float64 {
	return 4 * c.RateBps / float64(c.Users+2)
}

// ManyFlowResult is the cell's outcome.
type ManyFlowResult struct {
	Config ManyFlowConfig

	// Victim1Bps/Victim2Bps are the pair's post-warmup throughputs;
	// VictimJain is the fairness index over the two.
	Victim1Bps, Victim2Bps float64
	VictimJain             float64
	// BackgroundBps is the background population's aggregate delivery
	// rate over the whole run (packet-level churn plus fluid).
	BackgroundBps float64
	// Util is whole-run link utilization.
	Util float64

	// FlowsStarted/FlowsCompleted count background transfers;
	// FCTp50/FCTp95 summarize short-flow completion times in seconds.
	FlowsStarted   int
	FlowsCompleted int
	FCTp50, FCTp95 float64
	// Dropped counts packets refused at the isolation discipline.
	Dropped int64

	// Events is the engine's processed event count; MaxLivePackets the
	// pool high-water mark (0 when Check is off). Together they are
	// the cell's cost profile: events bound runtime, live packets
	// bound memory.
	Events         int64
	MaxLivePackets int

	// FluidUsers is the number of subscribers modelled by the fluid
	// aggregate; FluidRateBps its final offered rate.
	FluidUsers   int
	FluidRateBps float64
}

// fluidFlowBase offsets fluid packets' FlowIDs; the low bits carry the
// fluid-user index so the far gate can credit the right transfer.
const fluidFlowBase = 1 << 20

// fluidUser is one subscriber modelled by the aggregate: its demand is
// the same churn process the packet-level users run — identical
// derived randomness stream, identical draw order — but its transfer
// proceeds as a rate share of the aggregate injector instead of a
// full transport sender.
type fluidUser struct {
	id        int
	rng       *rand.Rand
	remaining int64
	active    bool
}

// fluidAggregate stands in for a population of churning background
// users: one paced injector offers the combined demand of the active
// transfers, spreading MSS packets round-robin across their user IDs
// at each user's plan rate (capped near link capacity — beyond that
// the per-user queues are full and extra offered load only
// manufactures drops). The isolation discipline still queues and
// schedules each user individually, so the victim's allocation
// dynamics are preserved while the per-flow transport state (cwnd,
// ack clocks, retransmission timers) of thousands of senders
// collapses into one timer. Completions are delivery-driven: a
// transfer ends when its bytes have crossed the link, so drops extend
// transfers exactly as retransmission would.
type fluidAggregate struct {
	eng  *sim.Engine
	path []*sim.Link

	users      []*fluidUser
	activeIdx  []int // indices into users with a transfer in progress
	cursor     int
	perUserBps float64
	maxBps     float64
	injecting  bool

	// DeliveredBytes counts bytes arriving at the far gate; Started,
	// Completed, and LongStarted mirror the packet-level churn counters.
	DeliveredBytes     int64
	Started, Completed int
	LongStarted        int
}

func newFluidAggregate(eng *sim.Engine, link *sim.Link, cfg ManyFlowConfig) *fluidAggregate {
	f := &fluidAggregate{
		eng:        eng,
		path:       []*sim.Link{link},
		perUserBps: cfg.perUserRateBps(),
		maxBps:     1.2 * cfg.RateBps,
	}
	for i := cfg.FluidAbove; i < cfg.Users; i++ {
		u := &fluidUser{
			id: manyFlowUserBase + i,
			// The same derived stream the packet-level counterpart
			// would use, so arrival gaps and sizes replay identically.
			rng: rand.New(rand.NewSource(faults.DeriveSeed(cfg.Seed, fmt.Sprintf("manyflow/churn/%d", i)))),
		}
		f.users = append(f.users, u)
		f.scheduleArrival(u)
	}
	return f
}

func (f *fluidAggregate) scheduleArrival(u *fluidUser) {
	gap := time.Duration(u.rng.ExpFloat64() * float64(churnThink))
	f.eng.Schedule(gap, func() { f.arrive(u) })
}

func (f *fluidAggregate) arrive(u *fluidUser) {
	if u.rng.Float64() < churnLongFrac {
		u.remaining = traffic.LongSizes.Sample(u.rng)
		f.LongStarted++
	} else {
		u.remaining = traffic.ShortSizes.Sample(u.rng)
	}
	f.Started++
	u.active = true
	f.activeIdx = append(f.activeIdx, f.indexOf(u))
	if !f.injecting {
		f.injecting = true
		f.tick()
	}
}

func (f *fluidAggregate) indexOf(u *fluidUser) int {
	return u.id - f.users[0].id
}

// Receive implements sim.Receiver: the far gate. Delivery drains the
// transfer; the last byte's arrival completes it.
func (f *fluidAggregate) Receive(p *sim.Packet) {
	idx := p.FlowID - fluidFlowBase
	f.DeliveredBytes += int64(p.Size)
	u := f.users[idx]
	p.Release()
	if !u.active {
		return // overshoot from packets already in flight at completion
	}
	u.remaining -= int64(p.Size)
	if u.remaining <= 0 {
		u.active = false
		f.Completed++
		f.scheduleArrival(u)
	}
}

func (f *fluidAggregate) tick() {
	// Compact completed transfers out of the active ring.
	live := f.activeIdx[:0]
	for _, idx := range f.activeIdx {
		if f.users[idx].active {
			live = append(live, idx)
		}
	}
	f.activeIdx = live
	if len(f.activeIdx) == 0 {
		f.injecting = false
		return
	}
	rate := float64(len(f.activeIdx)) * f.perUserBps
	if rate > f.maxBps {
		rate = f.maxBps
	}
	if f.cursor >= len(f.activeIdx) {
		f.cursor = 0
	}
	idx := f.activeIdx[f.cursor]
	f.cursor++
	p := f.eng.NewPacket()
	p.Size = sim.MSS
	p.UserID = f.users[idx].id
	p.FlowID = fluidFlowBase + idx
	p.Path = f.path
	p.Dest = f
	sim.Inject(p)
	interval := time.Duration(float64(sim.MSS) * 8 / rate * float64(time.Second))
	if interval < time.Microsecond {
		interval = time.Microsecond
	}
	f.eng.Schedule(interval, f.tick)
}

// RunManyFlow executes the cell.
func RunManyFlow(cfg ManyFlowConfig) (*ManyFlowResult, error) {
	cfg = cfg.norm()

	cc1, err := cca.New(cfg.CCA1)
	if err != nil {
		return nil, fmt.Errorf("core: manyflow: victim 1: %w", err)
	}
	cc2, err := cca.New(cfg.CCA2)
	if err != nil {
		return nil, fmt.Errorf("core: manyflow: victim 2: %w", err)
	}

	// Each subscriber's queue is sized to its plan-rate BDP, not the
	// link BDP: at thousands of users a shared-BDP queue per user
	// would let the aggregate backlog dwarf the link's own buffering.
	rtt := 2 * cfg.OneWayDelay
	perUserCap := int(cfg.BufferBDP * cfg.perUserRateBps() / 8 * rtt.Seconds())
	if perUserCap < 8*sim.MSS {
		perUserCap = 8 * sim.MSS
	}
	c, err := newCell(cellSpec{hops: []hop{{rateBps: cfg.RateBps, delay: cfg.OneWayDelay, queue: QueueUserIso,
		shapeBps: cfg.perUserRateBps(), buf: perUserCap}}, obs: cfg.Obs})
	if err != nil {
		return nil, fmt.Errorf("core: manyflow: %w", err)
	}
	defer c.release()
	eng, link := c.eng, c.links[0]
	iso := link.Q.(*qdisc.UserIsolation)
	// The checker sees every packet from the first: it is attached
	// before the victims start.
	var ck *check.Checker
	if cfg.Check {
		ck = check.Attach(eng)
		ck.WatchLink(link, iso, (cfg.Users+2)*perUserCap)
	}
	warmup := time.Duration(manyFlowWarmupFrac * float64(cfg.Duration))
	w := [][2]time.Duration{{warmup, cfg.Duration}}
	var victims [2]*source
	for i, cc := range []transport.CCA{cc1, cc2} {
		if victims[i], err = c.add(&flow{id: i + 1, user: i + 1, cc: cc, watch: w}); err != nil {
			return nil, fmt.Errorf("core: manyflow: victim %d: %w", i+1, err)
		}
	}

	packetUsers := cfg.Users
	if cfg.FluidAbove > 0 {
		packetUsers = cfg.FluidAbove
	}
	churns := make([]*traffic.Churn, 0, packetUsers)
	for i := 0; i < packetUsers; i++ {
		userID := manyFlowUserBase + i
		rng := eng.Rand(faults.DeriveSeed(cfg.Seed, fmt.Sprintf("manyflow/churn/%d", i)))
		churns = append(churns, traffic.NewChurn(eng, traffic.ChurnConfig{
			MeanThink:   churnThink,
			LongFrac:    churnLongFrac,
			NewCC:       func() transport.CCA { return cca.NewRenoCC() },
			Path:        c.links[:1],
			ReturnDelay: cfg.OneWayDelay,
			UserID:      userID,
			BaseFlowID:  1000 + 10000*i,
			Rand:        rng,
		}))
	}

	var fluid *fluidAggregate
	if cfg.FluidAbove > 0 && cfg.FluidAbove < cfg.Users {
		fluid = newFluidAggregate(eng, link, cfg)
	}

	eng.Run(cfg.Duration)

	res := &ManyFlowResult{Config: cfg, Events: eng.Processed, Dropped: iso.Dropped}
	res.Victim1Bps = victims[0].flow.Throughput(warmup, cfg.Duration)
	res.Victim2Bps = victims[1].flow.Throughput(warmup, cfg.Duration)
	res.VictimJain = stats.JainIndex([]float64{res.Victim1Bps, res.Victim2Bps})
	res.Util = link.Utilization(cfg.Duration)

	var bgBytes int64
	var fcts []float64
	for _, c := range churns {
		res.FlowsStarted += c.Started
		res.FlowsCompleted += c.Completed
		bgBytes += c.AckedBytes()
		fcts = append(fcts, c.ShortFCTs...)
	}
	if fluid != nil {
		bgBytes += fluid.DeliveredBytes
		res.FluidUsers = len(fluid.users)
		res.FlowsStarted += fluid.Started
		res.FlowsCompleted += fluid.Completed
		activeFluid := 0
		for _, u := range fluid.users {
			if u.active {
				activeFluid++
			}
		}
		res.FluidRateBps = float64(activeFluid) * fluid.perUserBps
		if res.FluidRateBps > fluid.maxBps {
			res.FluidRateBps = fluid.maxBps
		}
	}
	res.BackgroundBps = float64(bgBytes) * 8 / cfg.Duration.Seconds()
	if len(fcts) > 0 {
		cdf := stats.NewCDF(fcts)
		if q, err := cdf.Quantile(0.5); err == nil {
			res.FCTp50 = q
		}
		if q, err := cdf.Quantile(0.95); err == nil {
			res.FCTp95 = q
		}
	}

	if ck != nil {
		ck.VerifyLinks()
		_, res.MaxLivePackets = ck.LivePackets()
		if err := ck.Err(); err != nil {
			return nil, fmt.Errorf("core: manyflow: invariant violated: %w", err)
		}
	}
	return res, nil
}

// WriteTable renders the cell.
func (r *ManyFlowResult) WriteTable(w io.Writer) {
	c := r.Config
	fmt.Fprintf(w, "manyflow: %s/%s victim pair among %d background users on a %s link (%v RTT), plan %s\n",
		c.CCA1, c.CCA2, c.Users, FmtBps(c.RateBps), 2*c.OneWayDelay, FmtBps(c.perUserRateBps()))
	if r.FluidUsers > 0 {
		fmt.Fprintf(w, "hybrid fidelity: %d packet-level users, %d fluid (final offered %s)\n",
			c.Users-r.FluidUsers, r.FluidUsers, FmtBps(r.FluidRateBps))
	}
	fmt.Fprintf(w, "%-12s %12s %12s %7s %12s %6s\n",
		"victims", "flow1", "flow2", "jain", "background", "util")
	fmt.Fprintf(w, "%-12s %12s %12s %7.3f %12s %6.3f\n",
		c.CCA1+"/"+c.CCA2, FmtBps(r.Victim1Bps), FmtBps(r.Victim2Bps),
		r.VictimJain, FmtBps(r.BackgroundBps), r.Util)
	fmt.Fprintf(w, "background flows: %d started, %d completed, FCT p50 %.3fs p95 %.3fs, %d drops\n",
		r.FlowsStarted, r.FlowsCompleted, r.FCTp50, r.FCTp95, r.Dropped)
	fmt.Fprintf(w, "cost: %d events", r.Events)
	if r.MaxLivePackets > 0 {
		fmt.Fprintf(w, ", %d peak live packets", r.MaxLivePackets)
	}
	fmt.Fprintln(w)
}
