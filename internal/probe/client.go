package probe

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/nimbus"
	"repro/internal/stats"
	"repro/internal/transport"
)

// ClientConfig parameterizes an elasticity measurement run.
type ClientConfig struct {
	// Server is the probe server address, e.g. "192.0.2.1:4460".
	Server string
	// Duration is the measurement length (default 30s).
	Duration time.Duration
	// PacketSize is the data packet wire size (default 1200 bytes).
	PacketSize int
	// Nimbus configures the controller/estimator. Mu == 0 enables
	// auto link-rate tracking; the paper's speedtest framing implies
	// the provisioned rate is often known.
	Nimbus nimbus.Config
	// MaxRateBps caps the probe's sending rate regardless of the
	// controller (safety valve; default 100 Mbit/s).
	MaxRateBps float64
	// Seed randomizes the session id.
	Seed int64

	// HandshakeAttempts is how many Hello packets the client sends
	// before giving up on an unresponsive server (default 5). Each
	// attempt waits HandshakeTimeout doubled per retry, capped at 2s —
	// exponential backoff against a server that is slow rather than
	// dead.
	HandshakeAttempts int
	// HandshakeTimeout is the first attempt's reply deadline (default
	// 250ms).
	HandshakeTimeout time.Duration
	// StallTimeout aborts the run early when no acknowledgment has
	// arrived for this long — a server that died mid-run, or a path
	// that blackholed. The run then returns a Truncated report instead
	// of hanging until Duration (default 3s).
	StallTimeout time.Duration
}

// byeRetransmits is how many extra Bye copies the client sends beyond
// the first.
const byeRetransmits = 2

func (c ClientConfig) norm() ClientConfig {
	if c.Duration <= 0 {
		c.Duration = 30 * time.Second
	}
	if c.PacketSize < HeaderSize {
		c.PacketSize = 1200
	}
	if c.MaxRateBps <= 0 {
		c.MaxRateBps = 100e6
	}
	if c.HandshakeAttempts <= 0 {
		c.HandshakeAttempts = 5
	}
	if c.HandshakeTimeout <= 0 {
		c.HandshakeTimeout = 250 * time.Millisecond
	}
	if c.StallTimeout <= 0 {
		c.StallTimeout = 3 * time.Second
	}
	return c
}

// Report is the outcome of a measurement run.
type Report struct {
	Session uint64
	// Sent/Acked count data packets.
	Sent, Acked int64
	// LossRate is 1 - acked/sent.
	LossRate float64
	// MinRTT and MeanRTT summarize RTT samples.
	MinRTT, MeanRTT time.Duration
	// Eta is the elasticity time series.
	Eta []stats.Sample
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
	lastAckAt time.Time
	truncated bool
	truncWhy  string
	sessionID uint64
	start     time.Time
	endedAt   time.Time
	stop      atomic.Bool
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
	raddr, err := net.ResolveUDPAddr("udp", c.cfg.Server)
	if err != nil {
		return nil, fmt.Errorf("probe: resolving server: %w", err)
	}
	conn, err := net.DialUDP("udp", nil, raddr)
	if err != nil {
		return nil, fmt.Errorf("probe: dialing server: %w", err)
	}
	defer conn.Close()

	// Verify the server is alive before the measurement clock starts;
	// the Hi reply's RTT seeds the estimator.
	c.start = time.Now()
	hi, err := Handshake(context.Background(), conn, c.rng, c.sessionID, c.start,
		c.cfg.HandshakeAttempts, c.cfg.HandshakeTimeout)
	if err != nil {
		return nil, err
	}
	if rtt := time.Duration(c.nowNano() - hi.EchoNano); rtt > 0 {
		c.mu.Lock()
		c.updateRTT(rtt)
		c.mu.Unlock()
	}

	measureStart := time.Now()
	deadline := measureStart.Add(c.cfg.Duration)
	c.mu.Lock()
	c.lastAckAt = measureStart
	c.mu.Unlock()

	done := make(chan struct{})
	var wg sync.WaitGroup

	// Receiver: feed acknowledgments to the controller.
	wg.Add(1)
	go func() {
		defer wg.Done()
		c.receiveLoop(conn, deadline)
	}()

	// Sender: pace packets at the controller's rate.
	wg.Add(1)
	go func() {
		defer wg.Done()
		c.sendLoop(conn, deadline)
		close(done)
	}()
	<-done
	// Give in-flight acks a moment to land, then release the receiver.
	time.Sleep(50 * time.Millisecond)
	c.stop.Store(true)
	conn.SetReadDeadline(time.Now())
	wg.Wait()
	c.endedAt = time.Now()

	// Bye, retransmitted: it is fire-and-forget on the wire, and a
	// single lost copy would leak our session slot on the server until
	// its TTL sweep. A few spaced copies make that loss quadratically
	// unlikely; the server treats duplicates as no-ops.
	buf := make([]byte, HeaderSize)
	for i := 0; i <= byeRetransmits; i++ {
		if i > 0 {
			time.Sleep(20 * time.Millisecond)
		}
		bye := Header{Type: TypeBye, Session: c.sessionID, Seq: uint64(i), SendNano: c.nowNano()}
		if n, err := bye.Encode(buf); err == nil {
			conn.SetWriteDeadline(time.Now().Add(100 * time.Millisecond))
			if _, err := conn.Write(buf[:n]); err != nil {
				break // server gone; nothing left to release
			}
		}
	}
	return c.report(), nil
}

func (c *Client) nowNano() int64 { return time.Since(c.start).Nanoseconds() }

// truncate records that the run is ending before its configured
// duration, keeping the first reason.
func (c *Client) truncate(why string) {
	c.mu.Lock()
	if !c.truncated {
		c.truncated = true
		c.truncWhy = why
	}
	c.mu.Unlock()
}

// stalled reports whether the ack stream has been silent too long,
// recording the truncation on first detection.
func (c *Client) stalled(now time.Time) bool {
	c.mu.Lock()
	quiet := c.sent > 0 && now.Sub(c.lastAckAt) > c.cfg.StallTimeout
	c.mu.Unlock()
	if quiet {
		c.truncate(fmt.Sprintf("no acknowledgment for %v (server dead or path blackholed)",
			c.cfg.StallTimeout))
	}
	return quiet
}

func (c *Client) sendLoop(conn *net.UDPConn, deadline time.Time) {
	buf := make([]byte, c.cfg.PacketSize)
	var seq uint64
	next := time.Now()
	for time.Now().Before(deadline) {
		now := time.Now()
		if c.stalled(now) {
			return
		}
		if now.Before(next) {
			wait := next.Sub(now)
			if wait > 100*time.Millisecond {
				wait = 100 * time.Millisecond // keep the stall watchdog live
			}
			time.Sleep(wait)
			continue
		}
		h := Header{
			Type:     TypeData,
			Session:  c.sessionID,
			Seq:      seq,
			SendNano: c.nowNano(),
			Size:     uint16(c.cfg.PacketSize),
		}
		if _, err := h.Encode(buf); err != nil {
			c.truncate(fmt.Sprintf("encoding data packet: %v", err))
			return
		}
		if _, err := conn.Write(buf); err != nil {
			// Connected UDP sockets surface ICMP unreachable as a write
			// error: the server vanished.
			c.truncate(fmt.Sprintf("send failed: %v", err))
			return
		}
		seq++

		c.mu.Lock()
		c.sent++
		elapsed := time.Duration(c.nowNano())
		c.cc.OnSend(elapsed, c.cfg.PacketSize, int(c.sent-c.acked)*c.cfg.PacketSize)
		rate := c.cc.PacingRate()
		c.mu.Unlock()

		if rate > c.cfg.MaxRateBps {
			rate = c.cfg.MaxRateBps
		}
		if rate < 8*float64(c.cfg.PacketSize) {
			rate = 8 * float64(c.cfg.PacketSize) // >= 1 packet/s
		}
		gap := time.Duration(float64(c.cfg.PacketSize*8) / rate * float64(time.Second))
		next = next.Add(gap)
		if behind := time.Now(); next.Before(behind.Add(-100 * time.Millisecond)) {
			next = behind // don't accumulate unbounded debt
		}
	}
}

func (c *Client) receiveLoop(conn *net.UDPConn, deadline time.Time) {
	buf := make([]byte, 64*1024)
	for {
		conn.SetReadDeadline(time.Now().Add(200 * time.Millisecond))
		n, err := conn.Read(buf)
		if err != nil {
			if c.stop.Load() || time.Now().After(deadline) {
				return
			}
			continue
		}
		h, err := Decode(buf[:n])
		if err != nil || h.Type != TypeAck || h.Session != c.sessionID {
			continue
		}
		nowN := c.nowNano()
		rtt := time.Duration(nowN - h.EchoNano)
		if rtt <= 0 {
			continue
		}
		c.mu.Lock()
		c.acked++
		c.ackedB += int64(h.Size)
		c.rttSum += rtt
		c.lastAckAt = time.Now()
		c.updateRTT(rtt)
		elapsed := time.Duration(nowN)
		inflight := int(c.sent-c.acked) * c.cfg.PacketSize
		if inflight < 0 {
			inflight = 0
		}
		var rate float64
		if elapsed > 0 {
			rate = float64(c.ackedB) * 8 / elapsed.Seconds()
		}
		c.cc.OnAck(transport.AckInfo{
			Now:          elapsed,
			AckedBytes:   int(h.Size),
			RTT:          rtt,
			SRTT:         c.srtt,
			MinRTT:       c.minRTT,
			Inflight:     inflight,
			DeliveryRate: rate,
			CumDelivered: c.ackedB,
		})
		c.mu.Unlock()
	}
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
		Eta:             c.cc.Est.Elasticity.Samples(),
		Truncated:       c.truncated,
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
	settle := c.cfg.Duration / 4
	v := c.cc.Est.Verdict(settle, math.MaxInt64)
	r.Windows, r.MeanEta, r.Elastic = v.Windows, v.Mean, v.Elastic

	// Confidence: completion fraction x settled-window yield, with up
	// to a 50% discount under heavy loss. A run cut short or starved of
	// windows degrades to a low-confidence (inconclusive) verdict
	// instead of a crisp-looking wrong one.
	completion := float64(r.Elapsed) / float64(c.cfg.Duration)
	if completion > 1 {
		completion = 1
	}
	slide := c.cc.Est.Config().SlideInterval
	expected := float64(c.cfg.Duration-settle) / float64(slide)
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
