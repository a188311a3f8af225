package cca

import (
	"testing"
	"time"

	"repro/internal/qdisc"
	"repro/internal/sim"
	"repro/internal/transport"
)

func ack(now time.Duration, bytes int, rtt time.Duration) transport.AckInfo {
	return transport.AckInfo{
		Now: now, AckedBytes: bytes, RTT: rtt, SRTT: rtt, MinRTT: rtt,
	}
}

func TestRenoSlowStartDoublesPerRTT(t *testing.T) {
	r := NewRenoCC()
	w0 := r.CWnd()
	// Ack a full window: slow start adds acked bytes, doubling cwnd.
	acked := 0
	for acked < w0 {
		r.OnAck(ack(time.Second, sim.MSS, 50*time.Millisecond))
		acked += sim.MSS
	}
	if got := r.CWnd(); got < 2*w0-sim.MSS || got > 2*w0+sim.MSS {
		t.Errorf("cwnd after one slow-start RTT = %d, want ~%d", got, 2*w0)
	}
}

func TestRenoCongestionAvoidanceLinear(t *testing.T) {
	r := NewRenoCC()
	// Force CA by setting ssthresh below cwnd via a loss.
	r.OnLoss(transport.LossInfo{})
	w0 := r.CWnd()
	// One window of acks should add ~1 MSS.
	acked := 0
	for acked < w0 {
		r.OnAck(ack(time.Second, sim.MSS, 50*time.Millisecond))
		acked += sim.MSS
	}
	if got := r.CWnd(); got < w0+sim.MSS/2 || got > w0+2*sim.MSS {
		t.Errorf("CA growth = %d from %d, want ~+1 MSS", got, w0)
	}
}

func TestRenoHalvesOnLoss(t *testing.T) {
	r := NewRenoCC()
	for i := 0; i < 100; i++ {
		r.OnAck(ack(time.Second, sim.MSS, 50*time.Millisecond))
	}
	w := r.CWnd()
	r.OnLoss(transport.LossInfo{})
	if got := r.CWnd(); got < w/2-sim.MSS || got > w/2+sim.MSS {
		t.Errorf("post-loss cwnd = %d, want ~%d", got, w/2)
	}
}

func TestRenoTimeoutResetsToOneMSS(t *testing.T) {
	r := NewRenoCC()
	for i := 0; i < 50; i++ {
		r.OnAck(ack(time.Second, sim.MSS, 50*time.Millisecond))
	}
	r.OnTimeout(time.Second)
	if got := r.CWnd(); got != sim.MSS {
		t.Errorf("post-RTO cwnd = %d, want 1 MSS", got)
	}
	if r.PacingRate() != 0 {
		t.Error("reno should not pace")
	}
}

func TestRenoFloorAtTwoMSS(t *testing.T) {
	r := NewRenoCC()
	for i := 0; i < 20; i++ {
		r.OnLoss(transport.LossInfo{})
	}
	if got := r.CWnd(); got < 2*sim.MSS {
		t.Errorf("cwnd floor violated: %d", got)
	}
}

func TestNewRenoSingleDecreasePerEpoch(t *testing.T) {
	nr := NewNewRenoCC()
	var delivered int64
	for i := 0; i < 100; i++ {
		delivered += sim.MSS
		a := ack(time.Second, sim.MSS, 50*time.Millisecond)
		a.CumDelivered = delivered
		nr.OnAck(a)
	}
	w := nr.CWnd()
	nr.OnLoss(transport.LossInfo{Inflight: 10 * sim.MSS})
	w1 := nr.CWnd()
	// A second loss during recovery must not reduce again.
	nr.OnLoss(transport.LossInfo{Inflight: 10 * sim.MSS})
	if nr.CWnd() != w1 {
		t.Errorf("second in-recovery loss changed cwnd: %d -> %d", w1, nr.CWnd())
	}
	if w1 >= w {
		t.Errorf("loss should reduce cwnd: %d -> %d", w, w1)
	}
	// Recovery exits once CumDelivered passes the mark; growth resumes.
	for i := 0; i < 50; i++ {
		delivered += sim.MSS
		a := ack(2*time.Second, sim.MSS, 50*time.Millisecond)
		a.CumDelivered = delivered
		nr.OnAck(a)
	}
	if nr.CWnd() <= w1 {
		t.Error("cwnd should grow after recovery exits")
	}
}

func TestCubicReducesByBeta(t *testing.T) {
	c := NewCubicCC()
	for i := 0; i < 200; i++ {
		c.OnAck(ack(time.Duration(i)*10*time.Millisecond, sim.MSS, 50*time.Millisecond))
	}
	w := float64(c.CWnd())
	c.OnLoss(transport.LossInfo{})
	got := float64(c.CWnd())
	if got < 0.65*w || got > 0.75*w {
		t.Errorf("post-loss cwnd = %.0f, want ~0.7x of %.0f", got, w)
	}
}

func TestCubicConcaveRecoveryTowardWMax(t *testing.T) {
	c := NewCubicCC()
	// Grow, then lose: wMax anchors the cubic.
	now := time.Duration(0)
	for i := 0; i < 300; i++ {
		now += 10 * time.Millisecond
		c.OnAck(ack(now, sim.MSS, 50*time.Millisecond))
	}
	wMax := float64(c.CWnd())
	c.OnLoss(transport.LossInfo{Now: now})
	// Ack steadily for ~3 virtual seconds: the concave region should
	// bring cwnd back toward (but not far beyond) wMax.
	for i := 0; i < 300; i++ {
		now += 10 * time.Millisecond
		c.OnAck(ack(now, sim.MSS, 50*time.Millisecond))
	}
	got := float64(c.CWnd())
	if got < 0.75*wMax || got > 1.15*wMax {
		t.Errorf("cwnd after concave recovery = %.0f, want within [0.75, 1.15] x wMax (%.0f)", got, wMax)
	}
}

func TestCubicTimeout(t *testing.T) {
	c := NewCubicCC()
	for i := 0; i < 100; i++ {
		c.OnAck(ack(time.Second, sim.MSS, 50*time.Millisecond))
	}
	c.OnTimeout(2 * time.Second)
	if got := c.CWnd(); got != sim.MSS {
		t.Errorf("post-RTO cwnd = %d", got)
	}
}

func TestBBRStartupFindsBandwidth(t *testing.T) {
	b := NewBBRCC()
	if b.state != bbrStartup {
		t.Fatalf("initial state = %s", b.state)
	}
	// Feed acks with a capped delivery rate: startup should detect the
	// plateau and move on to drain/probe_bw.
	now := time.Duration(0)
	var delivered int64
	for i := 0; i < 400; i++ {
		now += 5 * time.Millisecond
		delivered += sim.MSS
		b.OnAck(transport.AckInfo{
			Now: now, AckedBytes: sim.MSS, RTT: 50 * time.Millisecond,
			SRTT: 50 * time.Millisecond, MinRTT: 50 * time.Millisecond,
			DeliveryRate: 20e6, CumDelivered: delivered,
			Inflight: 10 * sim.MSS,
		})
	}
	if b.state == bbrStartup {
		t.Errorf("still in startup after plateaued delivery rate")
	}
	if rate := b.PacingRate(); rate < 10e6 || rate > 30e6 {
		t.Errorf("pacing rate = %.1f Mbit/s, want near the 20 Mbit/s model", rate/1e6)
	}
}

func TestBBRIgnoresLoss(t *testing.T) {
	b := NewBBRCC()
	now := time.Duration(0)
	var delivered int64
	for i := 0; i < 200; i++ {
		now += 5 * time.Millisecond
		delivered += sim.MSS
		b.OnAck(transport.AckInfo{
			Now: now, AckedBytes: sim.MSS, RTT: 40 * time.Millisecond,
			SRTT: 40 * time.Millisecond, MinRTT: 40 * time.Millisecond,
			DeliveryRate: 20e6, CumDelivered: delivered, Inflight: 8 * sim.MSS,
		})
	}
	w := b.CWnd()
	b.OnLoss(transport.LossInfo{})
	if b.CWnd() != w {
		t.Errorf("BBR cwnd changed on loss: %d -> %d", w, b.CWnd())
	}
}

func TestBBRCWndTracksBDP(t *testing.T) {
	b := NewBBRCC()
	now := time.Duration(0)
	var delivered int64
	for i := 0; i < 500; i++ {
		now += 5 * time.Millisecond
		delivered += sim.MSS
		b.OnAck(transport.AckInfo{
			Now: now, AckedBytes: sim.MSS, RTT: 50 * time.Millisecond,
			SRTT: 50 * time.Millisecond, MinRTT: 50 * time.Millisecond,
			DeliveryRate: 48e6, CumDelivered: delivered, Inflight: 20 * sim.MSS,
		})
	}
	// BDP = 48e6/8 * 0.05 = 300 KB; cwnd_gain 2 => ~600 KB.
	bdp := 48e6 / 8 * 0.05
	w := float64(b.CWnd())
	if w < 1.5*bdp || w > 3*bdp {
		t.Errorf("cwnd = %.0f, want ~2x BDP (%.0f)", w, bdp)
	}
}

func TestVegasHoldsQueueSmall(t *testing.T) {
	v := NewVegasCC()
	// Below alpha: RTT equals base -> increase.
	w0 := v.CWnd()
	now := time.Duration(0)
	for i := 0; i < 200; i++ {
		now += 10 * time.Millisecond
		a := ack(now, sim.MSS, 50*time.Millisecond)
		a.MinRTT = 50 * time.Millisecond
		v.OnAck(a)
	}
	if v.CWnd() <= w0 {
		t.Error("vegas should grow with an empty queue")
	}
	// Far above beta: inflated RTT -> decrease.
	w1 := v.CWnd()
	for i := 0; i < 200; i++ {
		now += 10 * time.Millisecond
		a := ack(now, sim.MSS, 250*time.Millisecond)
		a.MinRTT = 50 * time.Millisecond
		a.SRTT = 250 * time.Millisecond
		v.OnAck(a)
	}
	if v.CWnd() >= w1 {
		t.Errorf("vegas should shrink with a deep queue: %d -> %d", w1, v.CWnd())
	}
}

func TestCopaDirectionalVelocity(t *testing.T) {
	c := NewCopaCC()
	now := time.Duration(0)
	w0 := c.CWnd()
	// No queueing delay: target rate is huge, cwnd should climb, and
	// velocity doubling should accelerate it.
	for i := 0; i < 400; i++ {
		now += 10 * time.Millisecond
		a := ack(now, sim.MSS, 50*time.Millisecond)
		a.MinRTT = 50 * time.Millisecond
		c.OnAck(a)
	}
	if c.CWnd() <= w0*2 {
		t.Errorf("copa cwnd = %d, expected strong growth from %d", c.CWnd(), w0)
	}
	// Large queueing delay: should back off.
	w1 := c.CWnd()
	for i := 0; i < 400; i++ {
		now += 10 * time.Millisecond
		a := ack(now, sim.MSS, 500*time.Millisecond)
		a.MinRTT = 50 * time.Millisecond
		a.SRTT = 500 * time.Millisecond
		c.OnAck(a)
	}
	if c.CWnd() >= w1 {
		t.Errorf("copa should back off under queueing: %d -> %d", w1, c.CWnd())
	}
	if c.PacingRate() <= 0 {
		t.Error("copa paces at 2x cwnd/RTT")
	}
}

func TestAIMDParameters(t *testing.T) {
	// Decrease factor 0.8 instead of 0.5.
	a := newAIMD(0.8)
	a.OnLoss(transport.LossInfo{}) // exit slow start
	for i := 0; i < 100; i++ {
		a.OnAck(ack(time.Second, sim.MSS, 50*time.Millisecond))
	}
	w := float64(a.CWnd())
	a.OnLoss(transport.LossInfo{})
	got := float64(a.CWnd())
	if got < 0.75*w || got > 0.85*w {
		t.Errorf("decrease = %.2f, want 0.8", got/w)
	}
}

// TestAIMDAggressivenessOrdering: a gentler decrease (0.8) beats the
// standard 0.5 when competing head to head, the "more aggressive
// custom CCAs win" dynamic from §2.1.
func TestAIMDAggressivenessOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("long simulation")
	}
	eng := &sim.Engine{}
	const rate = 24e6
	rtt := 40 * time.Millisecond
	link := sim.NewLink(eng, "l", rate, rtt/2, qdisc.NewDropTailBDP(rate, rtt, 1))
	gentle := transport.NewFlow(eng, transport.FlowConfig{
		ID: 1, Path: []*sim.Link{link}, ReturnDelay: rtt / 2,
		CC: newAIMD(0.8), Backlogged: true,
	})
	gentle.Start()
	standard := transport.NewFlow(eng, transport.FlowConfig{
		ID: 2, Path: []*sim.Link{link}, ReturnDelay: rtt / 2,
		CC: NewRenoCC(), Backlogged: true,
	})
	standard.Start()
	gentle.Watch(15*time.Second, 45*time.Second)
	standard.Watch(15*time.Second, 45*time.Second)
	eng.Run(45 * time.Second)
	tg := gentle.Throughput(15*time.Second, 45*time.Second)
	ts := standard.Throughput(15*time.Second, 45*time.Second)
	if tg <= ts {
		t.Errorf("aimd(0.8) %.1f should beat aimd(0.5) %.1f", tg/1e6, ts/1e6)
	}
}

func TestCBRFixedRate(t *testing.T) {
	c := NewCBR(5e6)
	if c.PacingRate() != 5e6 {
		t.Errorf("rate = %v", c.PacingRate())
	}
	c.OnLoss(transport.LossInfo{})
	c.OnTimeout(0)
	c.OnAck(transport.AckInfo{})
	if c.PacingRate() != 5e6 || c.CWnd() != 1<<30 {
		t.Error("CBR must ignore all congestion signals")
	}
}

func TestRegistry(t *testing.T) {
	names := Names()
	if len(names) < 7 {
		t.Fatalf("registry too small: %v", names)
	}
	for _, n := range names {
		cc, err := New(n)
		if err != nil {
			t.Fatalf("New(%q): %v", n, err)
		}
		if cc.CWnd() <= 0 {
			t.Errorf("%s: non-positive initial window", n)
		}
	}
	if _, err := New("quic-magic"); err == nil {
		t.Error("unknown name should error")
	}
	// Fresh instances each call.
	a, _ := New("reno")
	b, _ := New("reno")
	a.OnLoss(transport.LossInfo{})
	if a.CWnd() == b.CWnd() {
		t.Error("New must return independent instances")
	}
}
