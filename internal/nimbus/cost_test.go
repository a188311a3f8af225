package nimbus

import (
	"math"
	"testing"
	"time"

	"repro/internal/cca"
	"repro/internal/qdisc"
	"repro/internal/sim"
	"repro/internal/transport"
)

// TestEtaSlideAllocatesNothing: once an estimator has emitted a window,
// the next slide — a second of samples ending in the detrend, Hann
// window and FFT over both signals — runs in the estimator's own
// scratch. Only the Elasticity series' amortized growth may allocate,
// and that rounds to zero per slide.
func TestEtaSlideAllocatesNothing(t *testing.T) {
	const mu = 48e6
	e := NewEstimator(Config{Mu: mu, PulseFreq: 2})
	// The elastic mirror of TestEstimatorElasticMirrorHasHighEta.
	pulse := func(at time.Duration) float64 { return 0.25 * mu * math.Sin(2*math.Pi*2*at.Seconds()) }
	rinF := func(at time.Duration) float64 { return 30e6 + pulse(at) }
	routF := func(at time.Duration) float64 { rin := rinF(at); return mu * rin / (rin + 18e6 - pulse(at)) }

	var at time.Duration
	// step feeds one second, one send and one ack per millisecond, so
	// exactly one slide boundary falls inside it.
	step := func() {
		for end := at + time.Second; at < end; at += time.Millisecond {
			e.RecordSend(at, int(rinF(at)/8*1e-3))
			srtt := feedRTT + 20*time.Millisecond
			e.RecordAck(at, int(routF(max(at-feedRTT, 0))/8*1e-3), srtt, srtt, feedRTT)
		}
	}
	for i := 0; i < 8; i++ { // past the first full window
		step()
	}
	before := len(e.Elasticity.Samples())
	if before == 0 {
		t.Fatal("warm-up emitted no eta")
	}
	allocs := testing.AllocsPerRun(20, step)
	if got := len(e.Elasticity.Samples()) - before; got != 21 {
		t.Fatalf("%d slides in 21 seconds, want 21", got)
	}
	if eta, _ := e.Eta(); eta <= 0 {
		t.Fatalf("eta = %v: the slides never reached the spectrum", eta)
	}
	if allocs != 0 {
		t.Errorf("%.0f allocations per slide, want 0", allocs)
	}
}

// instants forwards to the controller and records every instant its
// clock is set to.
type instants struct {
	*CCA
	seen map[time.Duration]bool
}

func (c instants) OnSend(now time.Duration, bytes, inflight int) {
	c.seen[now] = true
	c.CCA.OnSend(now, bytes, inflight)
}

func (c instants) OnAck(a transport.AckInfo) {
	c.seen[a.Now] = true
	c.CCA.OnAck(a)
}

// TestPulseEvaluatedOncePerInstant: the sender asks for the pacing rate
// (directly and through CWnd) several times per ack, all at one
// instant, and the sinusoid behind it is worked out once per instant.
func TestPulseEvaluatedOncePerInstant(t *testing.T) {
	// Figure 3's cell: 48 Mbit/s, 100 ms, a 1-BDP FIFO, the paper's
	// probe against a backlogged Cubic flow, 10 virtual seconds.
	const rate = 48e6
	owd := 50 * time.Millisecond
	eng := &sim.Engine{}
	link := sim.NewLink(eng, "l", rate, owd, qdisc.NewDropTailBDP(rate, 2*owd, 1))
	n := NewCCA(Config{Mu: rate, PulseFreq: 2})
	probe := instants{n, map[time.Duration]bool{0: true}}
	for id, cc := range []transport.CCA{probe, cca.NewCubicCC()} {
		transport.NewFlow(eng, transport.FlowConfig{
			ID: id + 1, Path: []*sim.Link{link}, ReturnDelay: owd, CC: cc, Backlogged: true,
		}).Start()
	}
	eng.Run(10 * time.Second)
	t.Logf("%d pulse evaluations over %d distinct instants", n.pulseEvals, len(probe.seen))
	if n.pulseEvals == 0 {
		t.Fatal("the pulse was never evaluated")
	}
	if n.pulseEvals > int64(len(probe.seen)) {
		t.Errorf("%d pulse evaluations over %d distinct instants, want at most one each", n.pulseEvals, len(probe.seen))
	}
}
