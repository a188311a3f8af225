package core

import (
	"time"

	"repro/internal/nimbus"
)

// paperProbe is the controller every probe cell but fig3 (which lets
// its caller override the configuration) runs as its main flow.
func paperProbe(rateBps float64) *nimbus.CCA {
	return nimbus.NewCCA(nimbus.PaperConfig(rateBps))
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
