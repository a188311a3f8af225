package transport_test

import (
	"testing"
	"time"

	"repro/internal/cca"
	"repro/internal/obs"
	"repro/internal/qdisc"
	"repro/internal/sim"
	"repro/internal/transport"
)

// benchFlow simulates virtual seconds of a saturating 48 Mbit/s flow
// (packets + acks + CCA callbacks, roughly 4,000 of each per second),
// optionally with a tracer attached to the link and the sender. It is
// the shared body of the traced-vs-untraced pair below, which guards
// the observability layer's hot-path cost: with tr == nil every emit
// site must reduce to one branch.
func benchFlow(b *testing.B, tr obs.Tracer) {
	eng := &sim.Engine{}
	const rate = 48e6
	link := sim.NewLink(eng, "l", rate, 20*time.Millisecond, qdisc.NewDropTailBDP(rate, 40*time.Millisecond, 1))
	link.Trace = tr
	f := transport.NewFlow(eng, transport.FlowConfig{
		ID: 1, Path: []*sim.Link{link}, ReturnDelay: 20 * time.Millisecond,
		CC: cca.NewCubicCC(), Backlogged: true, Trace: tr,
	})
	f.Start()
	eng.Run(2 * time.Second) // warm up past slow start
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Run(eng.Now() + time.Second)
	}
	b.StopTimer()
	perSec := float64(f.Sender.BytesAcked()) * 8 / eng.Now().Seconds()
	b.ReportMetric(perSec/1e6, "sim-Mbit/s")
}

// BenchmarkFlowSecond is the untraced baseline: one virtual second per
// iteration with tracing disabled (nil tracer).
func BenchmarkFlowSecond(b *testing.B) { benchFlow(b, nil) }

// BenchmarkFlowSecondTraced runs the same workload with every event
// captured into a flight ring — the upper bound on tracing overhead
// (run logs sample bulk events down, this keeps all of them).
func BenchmarkFlowSecondTraced(b *testing.B) {
	benchFlow(b, obs.NewFlightRecorder())
}
