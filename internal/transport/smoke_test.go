package transport_test

import (
	"testing"
	"time"

	"repro/internal/cca"
	"repro/internal/qdisc"
	"repro/internal/sim"
	"repro/internal/transport"
)

// TestSingleRenoFillsLink checks the core emulation loop end to end: a
// single backlogged Reno flow on a 10 Mbit/s, 20 ms link should achieve
// close to the link rate.
func TestSingleRenoFillsLink(t *testing.T) {
	eng := &sim.Engine{}
	const rate = 10e6
	link := sim.NewLink(eng, "bottleneck", rate, 10*time.Millisecond, qdisc.NewDropTailBDP(rate, 20*time.Millisecond, 1))
	f := transport.NewFlow(eng, transport.FlowConfig{
		ID:          1,
		Path:        []*sim.Link{link},
		ReturnDelay: 10 * time.Millisecond,
		CC:          cca.NewRenoCC(),
		Backlogged:  true,
	})
	f.Watch(5*time.Second, 20*time.Second)
	f.Start()
	eng.Run(20 * time.Second)

	got := f.Throughput(5*time.Second, 20*time.Second)
	if got < 0.8*rate || got > 1.05*rate {
		t.Fatalf("throughput = %.2f Mbit/s, want ~%.2f", got/1e6, rate/1e6)
	}
	if f.Sender.LossEvents() == 0 {
		t.Errorf("expected at least one loss event on a droptail link")
	}
	if f.Sender.Snapshot().MinRTT < 20*time.Millisecond || f.Sender.Snapshot().MinRTT > 25*time.Millisecond {
		t.Errorf("minRTT = %v, want ~20ms", f.Sender.Snapshot().MinRTT)
	}
}
