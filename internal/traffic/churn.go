package traffic

import (
	"math/rand"
	"time"

	"repro/internal/sim"
	"repro/internal/transport"
)

// ChurnConfig parameterizes a per-user flow churn process: the user
// runs at most one transfer at a time, and after each completion an
// exponential think time elapses before the next arrival — a closed
// loop whose arrivals and departures are both Poisson-like. A fraction
// of arrivals are long transfers drawn from LongSizes; the rest are
// heavy-tailed short (web-like) flows drawn from ShortSizes. Each user
// owns a private randomness stream, so the draw sequence depends only
// on that user's own completions and the whole population is
// byte-replayable regardless of how users interleave on the link.
type ChurnConfig struct {
	// MeanThink is the mean exponential gap between a completion and
	// the next arrival (default 2s). The first arrival is drawn from
	// the same distribution, staggering start-up across the population.
	MeanThink time.Duration
	// LongFrac is the probability an arrival is a long transfer
	// (default 0.05).
	LongFrac float64
	// NewCC constructs the per-flow controller (required).
	NewCC func() transport.CCA
	// Path/ReturnDelay/UserID as in transport.FlowConfig.
	Path        []*sim.Link
	ReturnDelay time.Duration
	UserID      int
	// BaseFlowID numbers generated flows upward from this ID.
	BaseFlowID int
	// Rand is the user's private randomness stream (required).
	Rand *rand.Rand
}

// Churn drives one user's flow arrival/departure process.
type Churn struct {
	cfg ChurnConfig
	eng *sim.Engine

	// Started and Completed count arrivals and departures;
	// LongStarted counts the long-transfer subset of arrivals.
	Started     int
	Completed   int
	LongStarted int
	// ShortFCTs records completed short-flow completion times in
	// seconds.
	ShortFCTs []float64

	active    *transport.Flow
	doneBytes int64
}

// NewChurn starts the process; the first arrival lands after one think
// time.
func NewChurn(eng *sim.Engine, cfg ChurnConfig) *Churn {
	if cfg.MeanThink <= 0 {
		cfg.MeanThink = 2 * time.Second
	}
	if cfg.LongFrac < 0 {
		cfg.LongFrac = 0
	}
	c := &Churn{cfg: cfg, eng: eng}
	c.scheduleNext()
	return c
}

// AckedBytes returns the bytes delivered across all of the user's
// transfers, including the one in progress.
func (c *Churn) AckedBytes() int64 {
	b := c.doneBytes
	if c.active != nil {
		b += c.active.Sender.BytesAcked()
	}
	return b
}

func (c *Churn) scheduleNext() {
	gap := time.Duration(c.cfg.Rand.ExpFloat64() * float64(c.cfg.MeanThink))
	c.eng.Schedule(gap, c.arrive)
}

func (c *Churn) arrive() {
	long := c.cfg.Rand.Float64() < c.cfg.LongFrac
	var size int64
	if long {
		size = LongSizes.Sample(c.cfg.Rand)
		c.LongStarted++
	} else {
		size = ShortSizes.Sample(c.cfg.Rand)
	}
	id := c.cfg.BaseFlowID + c.Started
	c.Started++
	start := c.eng.Now()
	f := transport.NewFlow(c.eng, transport.FlowConfig{
		ID:          id,
		UserID:      c.cfg.UserID,
		Path:        c.cfg.Path,
		ReturnDelay: c.cfg.ReturnDelay,
		CC:          c.cfg.NewCC(),
	})
	f.Sender.OnComplete = func(now time.Duration) {
		c.Completed++
		c.doneBytes += f.Sender.BytesAcked()
		c.active = nil
		if !long {
			c.ShortFCTs = append(c.ShortFCTs, (now - start).Seconds())
		}
		c.scheduleNext()
	}
	c.active = f
	f.Sender.Supply(size)
}
