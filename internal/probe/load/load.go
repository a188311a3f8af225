// Package load is the probe server's load harness: it replays
// thousands of concurrent simulated probe clients — evenly ramped
// arrivals, fixed-rate pacing — against one server and reports the
// session ceiling, admission outcomes, shed rates, and ack-latency
// quantiles. cmd/probeload wraps it as a CLI with a pass/fail SLO line
// for CI.
package load

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/faults"
	"repro/internal/probe"
	"repro/internal/stats"
)

// Config parameterizes one load run.
type Config struct {
	// Server is the target probe server address.
	Server string
	// Clients is the number of simulated probe clients (default 100).
	Clients int
	// Ramp spreads client arrivals evenly over this window (default
	// 1s).
	Ramp time.Duration
	// Duration is each client's data phase length (default 10s).
	Duration time.Duration
	// RateBps is each client's sending rate (default 128 kbit/s).
	RateBps float64

	// HandshakeAttempts/HandshakeTimeout mirror the real client's
	// retry budget (defaults 4 attempts, 200ms first timeout).
	HandshakeAttempts int
	HandshakeTimeout  time.Duration

	// SampleActive, when non-nil, is polled every 10ms for the
	// server's tracked-session count (self-host mode wires
	// Server.ActiveSessions here) to find the observed ceiling and
	// check for over-admission.
	SampleActive func() int

	// packetSize is the data packet wire size (default 256 bytes —
	// small packets stress packet-rate, which is what a fleet node
	// saturates on) and seed the run's seed, from which per-client
	// seeds derive (default 1); tests vary both.
	packetSize int
	seed       int64
}

func (c Config) norm() Config {
	if c.Clients <= 0 {
		c.Clients = 100
	}
	if c.Ramp <= 0 {
		c.Ramp = time.Second
	}
	if c.Duration <= 0 {
		c.Duration = 10 * time.Second
	}
	if c.RateBps <= 0 {
		c.RateBps = 128e3
	}
	if c.packetSize < probe.HeaderSize {
		c.packetSize = 256
	}
	if c.seed == 0 {
		c.seed = 1
	}
	if c.HandshakeAttempts <= 0 {
		c.HandshakeAttempts = 4
	}
	if c.HandshakeTimeout <= 0 {
		c.HandshakeTimeout = 200 * time.Millisecond
	}
	return c
}

// Result aggregates a run's client-side observations.
type Result struct {
	Clients int
	// Admission outcomes (one per client).
	Admitted     int // completed the handshake
	Busy         int // exhausted retries against explicit Busy rejections
	Draining     int // told the server is shutting down
	Unresponsive int // handshake timed out with no signal at all
	Errors       int // dial/socket errors

	// Data-phase totals across admitted clients.
	Sent  int64
	Acked int64

	// PeakConcurrent is the largest number of clients simultaneously
	// inside their data phase (client-observed concurrency).
	PeakConcurrent int
	// PeakServerSessions is the largest SampleActive reading (0 when
	// unsampled) — the observed session ceiling; compare against the
	// server's cap for over-admission.
	PeakServerSessions int

	// Latency is the ack-latency sketch (client send to ack receive).
	Latency *stats.Sketch

	Elapsed time.Duration
}

// LossRate is 1 - acked/sent across admitted clients.
func (r *Result) LossRate() float64 {
	if r.Sent == 0 {
		return 0
	}
	l := 1 - float64(r.Acked)/float64(r.Sent)
	if l < 0 {
		return 0
	}
	return l
}

// LatencyQuantile returns the q ack-latency quantile (0 when no acks).
func (r *Result) LatencyQuantile(q float64) time.Duration {
	if r.Latency == nil {
		return 0
	}
	v, err := r.Latency.Quantile(q)
	if err != nil {
		return 0
	}
	return time.Duration(v * float64(time.Millisecond))
}

// latencyCeilingMs bounds the ack-latency sketch's range: samples above
// 2 s clamp into the top bin, min/max stay exact.
const latencyCeilingMs = 2000

// latencyBatch is how many ack latencies a worker holds before adding
// them to the sketch.
const latencyBatch = 64

// Run executes the load: one goroutine per client, arrivals per
// the ramp schedule. Cancelling ctx cuts the data phases short but
// still reports what was observed.
func Run(ctx context.Context, cfg Config) (*Result, error) {
	cfg = cfg.norm()
	if cfg.Server == "" {
		return nil, fmt.Errorf("probeload: Server is required")
	}

	// One sketch under one lock takes every client's ack latencies,
	// handed over in batches so a large run's clients do not queue
	// on the lock once per ack.
	var latMu sync.Mutex
	latency := stats.NewSketch(0, latencyCeilingMs, 4096)
	addLatencies := func(ms []float64) {
		latMu.Lock()
		for _, v := range ms {
			latency.Add(v)
		}
		latMu.Unlock()
	}

	var (
		admitted, busy, draining, unresponsive, errs atomic.Int64
		sent, acked                                  atomic.Int64
		cur, peak                                    atomic.Int64
	)
	bumpPeak := func(v int64) {
		for {
			p := peak.Load()
			if v <= p || peak.CompareAndSwap(p, v) {
				return
			}
		}
	}

	// Server-side ceiling sampler.
	var peakServer atomic.Int64
	sampleQuit := make(chan struct{})
	var sampleWG sync.WaitGroup
	if cfg.SampleActive != nil {
		sampleWG.Add(1)
		go func() {
			defer sampleWG.Done()
			t := time.NewTicker(10 * time.Millisecond)
			defer t.Stop()
			for {
				select {
				case <-sampleQuit:
					return
				case <-t.C:
					v := int64(cfg.SampleActive())
					for {
						p := peakServer.Load()
						if v <= p || peakServer.CompareAndSwap(p, v) {
							break
						}
					}
				}
			}
		}()
	}

	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < cfg.Clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if !sleepUntil(ctx, start.Add(arrivalOffset(cfg, i))) {
				return
			}
			w := &worker{
				cfg:       cfg,
				rng:       rand.New(rand.NewSource(faults.DeriveSeed(cfg.seed, fmt.Sprintf("probeload/client/%d", i)))),
				latencies: addLatencies,
				batch:     make([]float64, 0, latencyBatch),
				enter:     func() { bumpPeak(cur.Add(1)) },
				leave:     func() { cur.Add(-1) },
			}
			switch w.run(ctx) {
			case outAdmitted:
				admitted.Add(1)
			case outBusy:
				busy.Add(1)
			case outDraining:
				draining.Add(1)
			case outUnresponsive:
				unresponsive.Add(1)
			default:
				errs.Add(1)
			}
			sent.Add(w.sent)
			acked.Add(w.acked)
		}(i)
	}
	wg.Wait()
	close(sampleQuit)
	sampleWG.Wait()

	return &Result{
		Clients:            cfg.Clients,
		Admitted:           int(admitted.Load()),
		Busy:               int(busy.Load()),
		Draining:           int(draining.Load()),
		Unresponsive:       int(unresponsive.Load()),
		Errors:             int(errs.Load()),
		Sent:               sent.Load(),
		Acked:              acked.Load(),
		PeakConcurrent:     int(peak.Load()),
		PeakServerSessions: int(peakServer.Load()),
		Latency:            latency,
		Elapsed:            time.Since(start),
	}, nil
}

// arrivalOffset is client i's start offset: arrivals are spaced evenly
// over the ramp.
func arrivalOffset(cfg Config, i int) time.Duration {
	return time.Duration(float64(cfg.Ramp) * float64(i) / float64(cfg.Clients))
}

func sleepUntil(ctx context.Context, at time.Time) bool {
	d := time.Until(at)
	if d <= 0 {
		return ctx.Err() == nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}

type outcome int

const (
	outAdmitted outcome = iota
	outBusy
	outDraining
	outUnresponsive
	outError
)

// worker is one simulated probe client: the real client's data phase
// with fixed pacing and no congestion controller — the point is to
// load the server, not to measure elasticity.
type worker struct {
	cfg   Config
	rng   *rand.Rand
	enter func() // data phase entered (concurrency gauge)
	leave func()

	latencies func(ms []float64) // adds ack latencies to the run's sketch
	batch     []float64          // ack latencies in ms not yet added

	sent  int64
	acked int64
}

func (w *worker) run(ctx context.Context) outcome {
	gap := time.Duration(float64(w.cfg.packetSize*8) / w.cfg.RateBps * float64(time.Second))
	err := (&probe.DataPhase{
		Server:            w.cfg.Server,
		Session:           w.rng.Uint64(),
		Rand:              w.rng,
		HandshakeAttempts: w.cfg.HandshakeAttempts,
		HandshakeTimeout:  w.cfg.HandshakeTimeout,
		Duration:          w.cfg.Duration,
		PacketSize:        w.cfg.packetSize,
		Admitted:          func(probe.Header, time.Duration) { w.enter() },
		Paced: func(time.Duration) time.Duration {
			w.sent++
			return gap
		},
		Ack: func(_, rtt time.Duration) {
			w.acked++
			if w.batch = append(w.batch, float64(rtt)/1e6); len(w.batch) == latencyBatch {
				w.latencies(w.batch)
				w.batch = w.batch[:0]
			}
		},
	}).Run(ctx)
	w.latencies(w.batch)
	switch {
	case err == nil:
		w.leave()
		return outAdmitted
	case errors.Is(err, probe.ErrServerBusy):
		return outBusy
	case errors.Is(err, probe.ErrServerDraining):
		return outDraining
	case errors.Is(err, probe.ErrServerUnresponsive):
		return outUnresponsive
	default:
		return outError
	}
}
