package main

import (
	"testing"
	"time"

	"repro/internal/core"
)

// TestProbeRunsThePaperProbe: the socket probe pulses as the simulated
// probe cells do. The Nimbus configuration the client is built with,
// defaults filled in, must equal the one a one-second fig3 run records
// for its probe, at that run's link rate and with -mu 0 (auto-track)
// apart from Mu.
func TestProbeRunsThePaperProbe(t *testing.T) {
	res, err := core.RunFig3(core.Fig3Config{PhaseDuration: time.Second, Phases: []string{"cbr"}})
	if err != nil {
		t.Fatal(err)
	}
	cell := res.Config.Nimbus.Norm()
	if got := clientConfig("127.0.0.1:4460", res.Config.RateBps, time.Second).Nimbus.Norm(); got != cell {
		t.Errorf("probe -mu %g runs %+v, the simulated probe %+v", res.Config.RateBps, got, cell)
	}
	auto := clientConfig("127.0.0.1:4460", 0, time.Second).Nimbus.Norm()
	auto.Mu = cell.Mu
	if auto != cell {
		t.Errorf("probe -mu 0 runs %+v apart from Mu, the simulated probe %+v", auto, cell)
	}
}
