package probe

import (
	"context"
	"math"
	"math/rand"
	"sync"
	"time"

	"repro/internal/nimbus"
	"repro/internal/transport"
)

// ClientConfig parameterizes an elasticity measurement run.
type ClientConfig struct {
	// Server is the probe server address, e.g. "192.0.2.1:4460".
	Server string
	// Nimbus configures the controller/estimator. Mu == 0 enables
	// auto link-rate tracking; the paper's speedtest framing implies
	// the provisioned rate is often known.
	Nimbus nimbus.Config
	// Seed randomizes the session id.
	Seed int64

	// HandshakeTimeout is the first Hello's reply deadline (default
	// 250ms). Each of the handshake's attempts waits it doubled per
	// retry, capped at 2s — exponential backoff against a server that
	// is slow rather than dead.
	HandshakeTimeout time.Duration

	// duration is the measurement length and handshakeAttempts how
	// many Hellos the client sends before giving up on an unresponsive
	// server (defaults 30s and 5). stallTimeout aborts the run early
	// when no acknowledgment has arrived for this long — a server that
	// died mid-run, or a path that blackholed; the run then returns a
	// Truncated report instead of hanging until the measurement ends
	// (default 3s). Tests shorten all three.
	duration          time.Duration
	handshakeAttempts int
	stallTimeout      time.Duration
}

// clientPacketSize is the probe's data packet wire size in bytes.
const clientPacketSize = 1200

func (c ClientConfig) norm() ClientConfig {
	if c.duration <= 0 {
		c.duration = 30 * time.Second
	}
	if c.handshakeAttempts <= 0 {
		c.handshakeAttempts = 5
	}
	if c.HandshakeTimeout <= 0 {
		c.HandshakeTimeout = 250 * time.Millisecond
	}
	if c.stallTimeout <= 0 {
		c.stallTimeout = 3 * time.Second
	}
	return c
}

// maxRateBps caps the probe's sending rate whatever the controller
// asks for: a safety valve.
const maxRateBps = 100e6

// Report is the outcome of a measurement run.
type Report struct {
	Session uint64
	// Sent/Acked count data packets.
	Sent, Acked int64
	// LossRate is 1 - acked/sent.
	LossRate float64
	// MinRTT and MeanRTT summarize RTT samples.
	MinRTT, MeanRTT time.Duration
	// MeanEta averages the (settled) elasticity windows.
	MeanEta float64
	// Elastic is the majority verdict over settled windows: did cross
	// traffic contend? Consult Confidence (or Reliable) before acting
	// on it — a truncated or starved run reports Elastic == false with
	// near-zero Confidence rather than a trustworthy negative.
	Elastic bool
	// CrossRateBps is the final cross-traffic estimate.
	CrossRateBps float64
	// ThroughputBps is the probe's achieved rate.
	ThroughputBps float64

	// Truncated reports that the run ended before the configured
	// duration; TruncatedReason says why.
	Truncated       bool
	TruncatedReason string
	// Elapsed is the measurement time actually achieved.
	Elapsed time.Duration
	// Windows counts the settled elasticity windows behind the verdict.
	Windows int
	// Confidence in [0, 1] grades the verdict: the fraction of the
	// configured duration completed, scaled by the fraction of expected
	// settled windows observed, discounted up to half under heavy loss.
	// Zero windows means zero confidence.
	Confidence float64
}

// Reliable reports whether the verdict is trustworthy: an untruncated
// run with Confidence of at least 0.5.
func (r *Report) Reliable() bool { return !r.Truncated && r.Confidence >= 0.5 }

// Verdict renders the classification with its reliability:
// "elastic", "inelastic", or "inconclusive" for low-confidence runs.
func (r *Report) Verdict() string {
	if !r.Reliable() {
		return "inconclusive"
	}
	if r.Elastic {
		return "elastic"
	}
	return "inelastic"
}

// Client runs the active measurement against a probe server.
type Client struct {
	cfg ClientConfig
	rng *rand.Rand // handshake jitter; only touched before the data phase

	mu     sync.Mutex
	cc     *nimbus.CCA
	srtt   time.Duration
	rttvar time.Duration
	minRTT time.Duration
	hasRTT bool

	sent      int64
	acked     int64
	ackedB    int64
	rttSum    time.Duration
	truncWhy  string
	sessionID uint64
	start     time.Time
	endedAt   time.Time
}

// NewClient prepares a measurement run.
func NewClient(cfg ClientConfig) *Client {
	cfg = cfg.norm()
	if cfg.Seed == 0 {
		// A fixed default seed would give every client the same session
		// id; concurrent probes against one server would then alias in
		// its session table and corrupt each other's accounting.
		cfg.Seed = time.Now().UnixNano()
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	return &Client{
		cfg:       cfg,
		rng:       rng,
		cc:        nimbus.NewCCA(cfg.Nimbus),
		sessionID: rng.Uint64(),
	}
}

// Run performs the measurement and returns the report. It blocks for
// at most the handshake budget plus the configured duration; a server
// death mid-run is detected by the stall watchdog and yields a
// Truncated report rather than an error or a hang.
func (c *Client) Run() (*Report, error) {
	size := clientPacketSize
	p := &DataPhase{
		Server:            c.cfg.Server,
		Session:           c.sessionID,
		Rand:              c.rng,
		HandshakeAttempts: c.cfg.handshakeAttempts,
		HandshakeTimeout:  c.cfg.HandshakeTimeout,
		Duration:          c.cfg.duration,
		PacketSize:        clientPacketSize,
		StallTimeout:      c.cfg.stallTimeout,
		// The Hi reply's RTT seeds the estimator.
		Admitted: func(hi Header, now time.Duration) {
			if rtt := now - time.Duration(hi.EchoNano); rtt > 0 {
				c.mu.Lock()
				c.updateRTT(rtt)
				c.mu.Unlock()
			}
		},
		// Pace at the controller's rate, capped and floored.
		Paced: func(now time.Duration) time.Duration {
			c.mu.Lock()
			c.sent++
			c.cc.OnSend(now, size, int(c.sent-c.acked)*size)
			rate := c.cc.PacingRate()
			c.mu.Unlock()
			rate = max(min(rate, maxRateBps), 8*float64(size)) // >= 1 packet/s
			return time.Duration(float64(size*8) / rate * float64(time.Second))
		},
		Ack: c.onAck,
	}
	err := p.Run(context.Background())
	c.start, c.endedAt, c.truncWhy = p.Start, p.Ended, p.Truncated
	if err != nil {
		return nil, err
	}
	return c.report(), nil
}

// onAck feeds one acknowledgment to the RTT estimate and the
// controller.
func (c *Client) onAck(h Header, now, rtt time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.acked++
	c.ackedB += int64(h.Size)
	c.rttSum += rtt
	c.updateRTT(rtt)
	var rate float64
	if now > 0 {
		rate = float64(c.ackedB) * 8 / now.Seconds()
	}
	c.cc.OnAck(transport.AckInfo{
		Now:          now,
		AckedBytes:   int(h.Size),
		RTT:          rtt,
		SRTT:         c.srtt,
		MinRTT:       c.minRTT,
		Inflight:     max(int(c.sent-c.acked)*clientPacketSize, 0),
		DeliveryRate: rate,
		CumDelivered: c.ackedB,
	})
}

func (c *Client) updateRTT(rtt time.Duration) {
	if !c.hasRTT {
		c.srtt, c.rttvar, c.minRTT = rtt, rtt/2, rtt
		c.hasRTT = true
		return
	}
	if rtt < c.minRTT {
		c.minRTT = rtt
	}
	d := c.srtt - rtt
	if d < 0 {
		d = -d
	}
	c.rttvar = (3*c.rttvar + d) / 4
	c.srtt = (7*c.srtt + rtt) / 8
}

func (c *Client) report() *Report {
	c.mu.Lock()
	defer c.mu.Unlock()
	r := &Report{
		Session:         c.sessionID,
		Sent:            c.sent,
		Acked:           c.acked,
		MinRTT:          c.minRTT,
		Truncated:       c.truncWhy != "",
		TruncatedReason: c.truncWhy,
	}
	if c.sent > 0 {
		r.LossRate = 1 - float64(c.acked)/float64(c.sent)
		if r.LossRate < 0 {
			r.LossRate = 0
		}
	}
	if c.acked > 0 {
		r.MeanRTT = c.rttSum / time.Duration(c.acked)
	}
	ended := c.endedAt
	if ended.IsZero() {
		ended = time.Now()
	}
	r.Elapsed = ended.Sub(c.start)
	if el := r.Elapsed.Seconds(); el > 0 {
		r.ThroughputBps = float64(c.ackedB) * 8 / el
	}
	r.CrossRateBps = c.cc.Est.CrossRate()

	// Majority verdict over settled windows (skip the first quarter).
	settle := c.cfg.duration / 4
	v := c.cc.Est.Verdict(settle, math.MaxInt64)
	r.Windows, r.MeanEta, r.Elastic = v.Windows, v.Mean, v.Elastic

	// Confidence: completion fraction x settled-window yield, with up
	// to a 50% discount under heavy loss. A run cut short or starved of
	// windows degrades to a low-confidence (inconclusive) verdict
	// instead of a crisp-looking wrong one.
	completion := float64(r.Elapsed) / float64(c.cfg.duration)
	if completion > 1 {
		completion = 1
	}
	slide := c.cc.Est.Config().SlideInterval
	expected := float64(c.cfg.duration-settle) / float64(slide)
	if expected < 1 {
		expected = 1
	}
	windowFrac := float64(r.Windows) / expected
	if windowFrac > 1 {
		windowFrac = 1
	}
	conf := completion * windowFrac * (1 - 0.5*r.LossRate)
	if conf < 0 {
		conf = 0
	}
	r.Confidence = conf
	return r
}
