// Package tslp implements time-series latency probing (Dhamdhere et
// al., SIGCOMM '18 — the paper's §4 related work): lightweight latency
// probes sent toward the near and far ends of a link measure its
// queueing-delay differential over time; sustained inflation indicates
// congestion. The paper's point, which this implementation lets the
// experiments demonstrate, is that TSLP detects *congestion* but
// cannot discriminate *contention*: an aggregate of short,
// application-limited flows inflates the same latency signal that two
// backlogged CCAs do.
package tslp

import (
	"time"

	"repro/internal/sim"
	"repro/internal/stats"
)

const (
	// probeInterval is the probing cadence (the real system probes far
	// less often, but emulated sessions are short).
	probeInterval = 100 * time.Millisecond
	// inflationThreshold is the queueing-delay differential that flags
	// a sample as congested.
	inflationThreshold = 5 * time.Millisecond
)

// Prober sends TTL-limited-style latency probes across one emulated
// link: a "near" probe measures the path up to the link's ingress and
// a "far" probe crosses the link, so their differential isolates the
// link's queueing delay — the same trick the real TSLP plays with
// router TTL expiry.
type Prober struct {
	eng  *sim.Engine
	link *sim.Link

	nextID int64

	// Bound once at construction so each probe tick reuses the same
	// path slice, receiver, and tick closure instead of allocating.
	path   []*sim.Link
	dest   sim.Receiver
	tickFn func()

	// Diff is the time series of near/far latency differentials in
	// seconds (the link's instantaneous queueing + serialization
	// delay).
	Diff stats.Series
	// Sent and Received count far probes.
	Sent, Received int64
}

// probeFlowID is the probes' flow id, distinct from data flows so fair
// queueing treats probes as their own class.
const probeFlowID = 9999

// NewProber starts probing the link. Probe packets are 64 bytes and
// traverse the link's queue like any other traffic (they experience —
// and measure — its queueing delay).
func NewProber(eng *sim.Engine, link *sim.Link) *Prober {
	p := &Prober{eng: eng, link: link}
	p.path = []*sim.Link{link}
	p.dest = sim.ReceiverFunc(p.receive)
	p.tickFn = p.tick
	p.tick()
	return p
}

// receive consumes a far probe that crossed the link and records the
// latency differential. The probe terminates here and is recycled.
func (p *Prober) receive(pkt *sim.Packet) {
	p.Received++
	// The near probe would measure just the propagation path; subtract
	// the link's constant components to isolate the queueing
	// differential, exactly what the TTL-expiry pair achieves in the
	// real technique.
	oneWay := p.eng.Now() - pkt.SentAt
	base := p.link.Delay() + p.link.TransmissionTime(pkt.Size)
	diff := oneWay - base
	if diff < 0 {
		diff = 0
	}
	p.Diff.Append(p.eng.Now(), diff.Seconds())
	pkt.Release()
}

func (p *Prober) tick() {
	sent := p.eng.Now()
	p.Sent++
	p.nextID++
	probe := p.eng.NewPacket()
	probe.FlowID = probeFlowID
	probe.Seq = p.nextID
	probe.Size = 64
	probe.SentAt = sent
	probe.Path = p.path
	probe.Dest = p.dest
	sim.Inject(probe)
	p.eng.Schedule(probeInterval, p.tickFn)
}

// Verdict summarizes a probing session per the TSLP methodology.
type Verdict struct {
	// BaselineMs is the low-percentile (p10) queueing delay.
	BaselineMs float64
	// P50Ms and P90Ms are differential percentiles.
	P50Ms, P90Ms float64
	// CongestedFraction is the fraction of samples with inflation
	// above threshold.
	CongestedFraction float64
	// Congested is the session-level flag: sustained inflation in the
	// majority of samples.
	Congested bool
}

// Verdict computes the session verdict over [from, to].
func (p *Prober) Verdict(from, to time.Duration) Verdict {
	samples := p.Diff.Window(from, to)
	var v Verdict
	if len(samples) == 0 {
		return v
	}
	ms := make([]float64, len(samples))
	for i, s := range samples {
		ms[i] = s * 1000
	}
	b, _ := stats.Quantile(ms, 0.1)
	p50, _ := stats.Quantile(ms, 0.5)
	p90, _ := stats.Quantile(ms, 0.9)
	v.BaselineMs, v.P50Ms, v.P90Ms = b, p50, p90
	// The differential already isolates the link's queueing delay, so
	// inflation is measured absolutely (a persistently full queue must
	// not launder itself into the baseline).
	const thr = float64(inflationThreshold) / float64(time.Millisecond)
	over := 0
	for _, m := range ms {
		if m > thr {
			over++
		}
	}
	v.CongestedFraction = float64(over) / float64(len(ms))
	v.Congested = v.CongestedFraction > 0.5
	return v
}
