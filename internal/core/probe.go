package core

import (
	"time"

	"repro/internal/nimbus"
)

// paperProbeConfig is the paper's elasticity probe on a link of the
// given rate: Nimbus with mode switching disabled, pulsing at 2 Hz.
// Nimbus's own default (5 Hz) assumes RTTs well under the pulse
// period; on the 100 ms Figure 3 link the loaded RTT approaches
// 200 ms, so elastic cross traffic cannot complete its control loop
// within a 5 Hz cycle. 2 Hz keeps the pulse period comfortably above
// the loaded RTT (abl-pulse sweeps this choice).
func paperProbeConfig(rateBps float64) nimbus.Config {
	return nimbus.Config{Mu: rateBps, PulseFreq: 2}
}

// paperProbe is the controller every probe cell but fig3 (which lets
// its caller override the configuration) runs as its main flow.
func paperProbe(rateBps float64) *nimbus.CCA {
	return nimbus.NewCCA(paperProbeConfig(rateBps))
}

// probeAgainst is the whole-run measurement: the probe starts first as
// flow 1, one cross-traffic generator is started inline after it, the
// cell runs to `to`, the verdict is scored over [from, to), and the
// dumbbell is released.
func probeAgainst(d *Dumbbell, probe *nimbus.CCA, cross crossSpec, from, to time.Duration) (nimbus.Verdict, error) {
	defer d.release()
	d.AddBulk(1, 1, probe)
	g, err := d.installCross(cross)
	if err != nil {
		return nimbus.Verdict{}, err
	}
	g.start()
	d.Run(to)
	return probe.Est.Verdict(from, to), nil
}
