package probe

import (
	"context"
	"math"
	"math/rand"
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

// Client runs the active measurement against a probe server. Its
// callbacks run on the one goroutine that drives its session.
type Client struct {
	cfg ClientConfig
	p   *DataPhase
	cc  *nimbus.CCA
	rtt transport.RTTEstimator

	sent, acked, ackedB int64
	rttSum              time.Duration
}

// NewClient prepares a measurement run.
func NewClient(cfg ClientConfig) *Client {
	cfg = cfg.norm()
	if cfg.Seed == 0 {
		// A fixed default seed would give every client the same session
		// id; concurrent probes against one server would then alias in
		// its session table and corrupt each other's accounting.
		cfg.Seed = rand.Int63()
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	c := &Client{cfg: cfg, cc: nimbus.NewCCA(cfg.Nimbus)}
	size := clientPacketSize
	c.p = &DataPhase{
		Server:            cfg.Server,
		Session:           rng.Uint64(),
		Rand:              rng,
		HandshakeAttempts: cfg.handshakeAttempts,
		HandshakeTimeout:  cfg.HandshakeTimeout,
		Duration:          cfg.duration,
		PacketSize:        size,
		StallTimeout:      cfg.stallTimeout,
		// The Hi reply's RTT seeds the estimator.
		Admitted: func(hi Header, now time.Duration) {
			if rtt := echoRTT(hi.EchoNano, now); rtt > 0 {
				c.rtt.Update(rtt)
			}
		},
		// Pace at the controller's rate, capped and floored.
		Paced: func(now time.Duration) time.Duration {
			c.sent++
			c.cc.OnSend(now, size, int(c.sent-c.acked)*size)
			rate := max(min(c.cc.PacingRate(), maxRateBps), 8*float64(size)) // >= 1 packet/s
			return time.Duration(float64(size*8) / rate * float64(time.Second))
		},
		Ack: c.onAck,
	}
	return c
}

// Session is the client's session, for a binding to drive: Run binds
// it to a UDP socket, and Report reads the measurement once it is Done.
func (c *Client) Session() *DataPhase { return c.p }

// Run performs the measurement and returns the report. It blocks for
// at most the handshake budget plus the configured duration; a server
// death mid-run is detected by the stall watchdog and yields a
// Truncated report rather than an error or a hang.
func (c *Client) Run() (*Report, error) {
	if err := c.Session().Run(context.Background()); err != nil {
		return nil, err
	}
	return c.Report(), nil
}

// onAck feeds one acknowledged packet to the RTT estimate and the
// controller.
func (c *Client) onAck(now, rtt time.Duration) {
	c.acked++
	c.ackedB += clientPacketSize
	c.rttSum += rtt
	c.rtt.Update(rtt)
	c.cc.OnAck(transport.AckInfo{
		Now:          now,
		AckedBytes:   clientPacketSize,
		RTT:          rtt,
		SRTT:         c.rtt.SRTT,
		MinRTT:       c.rtt.Min,
		Inflight:     int(c.sent-c.acked) * clientPacketSize,
		DeliveryRate: float64(c.ackedB) * 8 / now.Seconds(),
		CumDelivered: c.ackedB,
	})
}

// Report summarizes the measurement so far: after Run, or once a
// binding has driven the session to Done.
func (c *Client) Report() *Report {
	r := &Report{
		Session:         c.p.Session,
		Sent:            c.sent,
		Acked:           c.acked,
		MinRTT:          c.rtt.Min,
		Truncated:       c.p.Truncated != "",
		TruncatedReason: c.p.Truncated,
		Elapsed:         c.p.Ended,
	}
	if c.sent > 0 {
		r.LossRate = 1 - float64(c.acked)/float64(c.sent)
	}
	if c.acked > 0 {
		r.MeanRTT = c.rttSum / time.Duration(c.acked)
	}
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
	completion := min(float64(r.Elapsed)/float64(c.cfg.duration), 1)
	slide := c.cc.Est.Config().SlideInterval
	expected := max(float64(c.cfg.duration-settle)/float64(slide), 1)
	windowFrac := min(float64(r.Windows)/expected, 1)
	r.Confidence = completion * windowFrac * (1 - 0.5*r.LossRate)
	return r
}
