package main

import (
	"testing"
	"time"

	_ "repro/internal/core" // registers fig3
	"repro/internal/nimbus"
	"repro/internal/scenario"
)

// TestProbeRunsThePaperProbe: the socket probe pulses as the simulated
// probe cells do. Every simulated cell runs nimbus.PaperConfig at its
// link rate; the Nimbus configuration the client is built with,
// defaults filled in, must equal it at fig3's default rate, and with
// -mu 0 (auto-track) apart from Mu.
func TestProbeRunsThePaperProbe(t *testing.T) {
	fig3, err := scenario.Lookup("fig3")
	if err != nil {
		t.Fatal(err)
	}
	rate := fig3.Defaults.RateBps
	if rate <= 0 {
		t.Fatalf("fig3 registers no default rate: %+v", fig3.Defaults)
	}
	cell := nimbus.PaperConfig(rate).Norm()
	if got := clientConfig("127.0.0.1:4460", rate, time.Second).Nimbus.Norm(); got != cell {
		t.Errorf("probe -mu %g runs %+v, the simulated probe %+v", rate, got, cell)
	}
	auto := clientConfig("127.0.0.1:4460", 0, time.Second).Nimbus.Norm()
	auto.Mu = cell.Mu
	if auto != cell {
		t.Errorf("probe -mu 0 runs %+v apart from Mu, the simulated probe %+v", auto, cell)
	}
}
