package core

import (
	"testing"
	"time"

	"repro/internal/nimbus"
)

// The ablation benchmarks time a few cells of each sweep rather than
// its whole grid, so they call the per-cell helpers the sweeps share.

// BenchmarkAblationPulse runs the abl-pulse cells at amplitude 0.25
// and 1, 2 and 5 Hz: the design choice behind the RTT-matched pulse
// period. Reported metric: the best separation achieved.
func BenchmarkAblationPulse(b *testing.B) {
	var best float64
	for i := 0; i < b.N; i++ {
		best = 0
		for _, f := range []float64{1, 2, 5} {
			row, err := pulseRow(f, 0.25, 20*time.Second, nil)
			if err != nil {
				b.Fatal(err)
			}
			best = max(best, row.Separation)
		}
	}
	b.ReportMetric(best, "best-separation")
}

// BenchmarkAblationSubPacket reproduces the §2.3 sub-packet-BDP regime
// (Chen et al.) on the thinnest and the thickest abl-subpkt link:
// fairness collapses on very thin links. Reported metric: Jain index
// on the thinnest link.
func BenchmarkAblationSubPacket(b *testing.B) {
	cfg := SubPacketConfig{Flows: 8, Duration: 20 * time.Second}.norm()
	var jain float64
	for i := 0; i < b.N; i++ {
		for _, rate := range []float64{256e3, 2e6} {
			row, err := subPacketRow(cfg, rate)
			if err != nil {
				b.Fatal(err)
			}
			if rate == 256e3 {
				jain = row.Jain
			}
		}
	}
	b.ReportMetric(jain, "jain-256kbps")
}

// BenchmarkAblationBuffer runs the abl-buffer cell at 1 BDP: the probe
// needs at least ~1 BDP of buffer to hold its standing queue plus the
// pulse swing. Reported metric: separation at 1 BDP.
func BenchmarkAblationBuffer(b *testing.B) {
	var sep float64
	for i := 0; i < b.N; i++ {
		etaR, etaC, err := separation(nimbus.PaperConfig(fig3RateBps), 1, 25*time.Second, nil)
		if err != nil {
			b.Fatal(err)
		}
		sep = etaR - etaC
	}
	b.ReportMetric(sep, "separation-1bdp")
}
