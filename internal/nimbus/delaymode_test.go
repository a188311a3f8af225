package nimbus_test

import (
	"testing"
	"time"

	"repro/internal/cca"
	"repro/internal/nimbus"
	"repro/internal/qdisc"
	"repro/internal/sim"
	"repro/internal/transport"
)

// probeOn starts a backlogged Nimbus flow, and a backlogged cross flow
// if cross is non-nil, over one 48 Mbit/s, 100 ms, 1-BDP DropTail link.
func probeOn(cross transport.CCA) (*sim.Engine, *nimbus.CCA, *transport.Flow) {
	const rate = 48e6
	owd := 50 * time.Millisecond
	eng := &sim.Engine{}
	link := sim.NewLink(eng, "l", rate, owd, qdisc.NewDropTailBDP(rate, 2*owd, 1))
	n := nimbus.NewCCA(nimbus.Config{Mu: rate, PulseFreq: 2})
	probe := transport.NewFlow(eng, transport.FlowConfig{
		ID: 1, Path: []*sim.Link{link}, ReturnDelay: owd, CC: n, Backlogged: true,
	})
	probe.Start()
	if cross != nil {
		transport.NewFlow(eng, transport.FlowConfig{
			ID: 2, Path: []*sim.Link{link}, ReturnDelay: owd, CC: cross, Backlogged: true,
		}).Start()
	}
	return eng, n, probe
}

// TestDelayModeAloneFillsLink: with no cross traffic the delay-mode
// controller tracks the whole link.
func TestDelayModeAloneFillsLink(t *testing.T) {
	eng, _, probe := probeOn(nil)
	probe.Watch(10*time.Second, 40*time.Second)
	eng.Run(40 * time.Second)
	if tput := probe.Throughput(10*time.Second, 40*time.Second); tput < 0.8*48e6 {
		t.Errorf("solo delay-mode throughput = %.1f Mbit/s", tput/1e6)
	}
}

// TestMeasurementConfigNeverSwitches pins the paper's configuration:
// the controller has no competitive mode to fall into, so however
// elastic the cross traffic is it keeps pulsing and keeps reporting it.
func TestMeasurementConfigNeverSwitches(t *testing.T) {
	eng, n, _ := probeOn(cca.NewCubicCC())
	eng.Run(40 * time.Second)
	if eta, ok := n.Est.Eta(); !ok || eta < 0.4 {
		t.Errorf("eta = %.3f (ok=%v), want elastic signal maintained", eta, ok)
	}
}
