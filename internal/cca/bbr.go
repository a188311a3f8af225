package cca

import (
	"time"

	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/transport"
)

// bbrState enumerates BBR's state machine.
type bbrState int

const (
	bbrStartup bbrState = iota
	bbrDrain
	bbrProbeBW
	bbrProbeRTT
)

func (s bbrState) String() string {
	switch s {
	case bbrStartup:
		return "startup"
	case bbrDrain:
		return "drain"
	case bbrProbeBW:
		return "probe_bw"
	default:
		return "probe_rtt"
	}
}

// BBR implements a faithful-in-shape BBRv1: a model-based controller
// that estimates the bottleneck bandwidth (windowed max delivery rate)
// and round-trip propagation delay (windowed min RTT), paces at
// pacing_gain x BtlBw, and caps inflight at cwnd_gain x BDP. Ware et
// al. (IMC '19) showed this design claims a fixed share against
// loss-based flows regardless of their number — the behaviour the
// paper's Figure 1 narrative references.
type BBR struct {
	mss float64

	btlBw   *stats.MaxFilter // bits/s
	rtProp  time.Duration
	rtSeen  time.Duration // when rtProp was last updated
	state   bbrState
	pacingG float64
	cwndG   float64

	// Round tracking: a round ends when delivery passes the delivered
	// count at the time the round started.
	roundEnd   int64
	roundCount int64

	// Startup full-pipe detection.
	fullBwCount int
	fullBw      float64

	// ProbeBW gain cycling.
	cycleIdx   int
	cycleStamp time.Duration

	// ProbeRTT.
	probeRTTDone  time.Duration
	nextProbeRTT  time.Duration
	priorCwndGain float64
	priorPacing   float64

	inflightNow int
	now         time.Duration
	trace       obs.Tracer
}

// SetTracer implements obs.TraceSetter: state-machine transitions are
// emitted as EvState events with the new state's name.
func (b *BBR) SetTracer(t obs.Tracer) { b.trace = t }

// setState switches the state machine and traces the transition.
func (b *BBR) setState(now time.Duration, next bbrState) {
	if next != b.state && b.trace != nil {
		b.trace.Emit(obs.Event{At: now, Type: obs.EvState, Src: "bbr",
			V1: float64(b.btlBwEstimate()), V2: b.rtProp.Seconds(), Note: next.String()})
	}
	b.state = next
}

var bbrGainCycle = [8]float64{1.25, 0.75, 1, 1, 1, 1, 1, 1}

const (
	bbrHighGain     = 2.885
	bbrRTpropWindow = 10 * time.Second
	bbrProbeRTTTime = 200 * time.Millisecond
)

// NewBBRCC returns a BBR controller.
func NewBBRCC() *BBR {
	return &BBR{
		mss:     sim.MSS,
		btlBw:   stats.NewMaxFilter(10 * time.Second), // generous startup window; tightened per-round below
		state:   bbrStartup,
		pacingG: bbrHighGain,
		cwndG:   bbrHighGain,
		rtProp:  0,
	}
}

func (b *BBR) bdpBytes(gain float64) float64 {
	bw := b.btlBwEstimate()
	rt := b.rtProp
	if bw <= 0 || rt <= 0 {
		return 10 * b.mss * gain
	}
	return gain * bw / 8 * rt.Seconds()
}

func (b *BBR) btlBwEstimate() float64 { return b.btlBw.Value(b.now) }

// OnAck implements transport.CCA.
func (b *BBR) OnAck(a transport.AckInfo) {
	b.inflightNow = a.Inflight
	b.now = a.Now
	// Update the bandwidth model. BBR filters over ~10 rounds; a 10 x
	// RTT time window approximates that.
	if a.DeliveryRate > 0 {
		b.btlBw.Update(a.Now, a.DeliveryRate)
	}
	if b.rtProp == 0 || a.RTT <= b.rtProp || a.Now-b.rtSeen > bbrRTpropWindow {
		b.rtProp = a.RTT
		b.rtSeen = a.Now
	}
	// Round accounting.
	newRound := false
	if a.CumDelivered >= b.roundEnd {
		b.roundEnd = a.CumDelivered + int64(a.Inflight)
		b.roundCount++
		newRound = true
	}

	switch b.state {
	case bbrStartup:
		if newRound {
			bw := b.btlBwEstimate()
			if bw > b.fullBw*1.25 {
				b.fullBw = bw
				b.fullBwCount = 0
			} else {
				b.fullBwCount++
				if b.fullBwCount >= 3 {
					b.setState(a.Now, bbrDrain)
					b.pacingG = 1 / bbrHighGain
					b.cwndG = bbrHighGain
				}
			}
		}
	case bbrDrain:
		if float64(a.Inflight) <= b.bdpBytes(1) {
			b.enterProbeBW(a.Now)
		}
	case bbrProbeBW:
		b.advanceCycle(a.Now)
		if b.nextProbeRTT > 0 && a.Now > b.nextProbeRTT {
			b.enterProbeRTT(a.Now)
		}
	case bbrProbeRTT:
		if a.Now >= b.probeRTTDone {
			b.nextProbeRTT = a.Now + 10*time.Second
			b.enterProbeBW(a.Now)
		}
	}
}

func (b *BBR) enterProbeBW(now time.Duration) {
	b.setState(now, bbrProbeBW)
	b.cwndG = 2
	b.cycleIdx = 0
	b.cycleStamp = now
	b.pacingG = bbrGainCycle[0]
	if b.nextProbeRTT == 0 {
		b.nextProbeRTT = now + 10*time.Second
	}
}

func (b *BBR) enterProbeRTT(now time.Duration) {
	b.setState(now, bbrProbeRTT)
	b.probeRTTDone = now + bbrProbeRTTTime
	b.pacingG = 1
	b.cwndG = 0 // CWnd() special-cases ProbeRTT to 4 MSS
}

func (b *BBR) advanceCycle(now time.Duration) {
	rt := b.rtProp
	if rt <= 0 {
		rt = 10 * time.Millisecond
	}
	if now-b.cycleStamp >= rt {
		b.cycleIdx = (b.cycleIdx + 1) % len(bbrGainCycle)
		b.cycleStamp = now
		b.pacingG = bbrGainCycle[b.cycleIdx]
	}
}

// OnLoss implements transport.CCA. BBRv1 does not reduce its model on
// loss (the behaviour responsible for its unfairness to loss-based
// flows); it only bounds inflight via the cwnd cap.
func (b *BBR) OnLoss(transport.LossInfo) {}

// OnTimeout implements transport.CCA.
func (b *BBR) OnTimeout(now time.Duration) {
	// Conservative restart: re-enter startup with a modest window.
	b.setState(now, bbrStartup)
	b.pacingG = bbrHighGain
	b.cwndG = bbrHighGain
	b.fullBw = 0
	b.fullBwCount = 0
}

// CWnd implements transport.CCA.
func (b *BBR) CWnd() int {
	if b.state == bbrProbeRTT {
		return int(4 * b.mss)
	}
	w := b.bdpBytes(b.cwndG)
	if w < 4*b.mss {
		w = 4 * b.mss
	}
	return int(w)
}

// PacingRate implements transport.CCA.
func (b *BBR) PacingRate() float64 {
	bw := b.btlBwEstimate()
	if bw <= 0 {
		// No model yet: pace at a nominal rate derived from the initial
		// window over a guessed RTT to get startup moving.
		return bbrHighGain * 10 * b.mss * 8 / 0.1
	}
	return b.pacingG * bw
}
