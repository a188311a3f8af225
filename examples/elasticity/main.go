// Elasticity: use the Nimbus-based probe as a contention sensor
// (§3.2). The probe shares an emulated link first with a backlogged
// Cubic flow (elastic cross traffic — real CCA contention) and then
// with a CBR stream of the same average rate (inelastic). Same
// throughput loss; completely different verdicts — which is exactly
// the information passive measurement cannot provide.
package main

import (
	"fmt"
	"time"

	"repro/internal/cca"
	"repro/internal/core"
	"repro/internal/nimbus"
	"repro/internal/transport"
)

func measure(crossName string, cross transport.CCA) {
	const rate = 48e6
	d := core.NewDumbbell(core.LinkSpec{
		RateBps:     rate,
		OneWayDelay: 50 * time.Millisecond,
		Queue:       core.QueueDropTail,
	})
	probeCC := nimbus.NewCCA(nimbus.Config{
		Mu:        rate,
		PulseFreq: 2, // period > loaded RTT (see DESIGN.md)
	})
	probe := d.AddBulk(1, 1, probeCC)

	f := d.AddBulk(2, 1, cross)

	const dur = 40 * time.Second
	probe.Watch(10*time.Second, dur)
	f.Watch(10*time.Second, dur)
	d.Run(dur)

	v := probeCC.Est.Verdict(10*time.Second, dur)
	verdict := "inelastic (no CCA contention)"
	if v.Elastic {
		verdict = "ELASTIC (CCA contention detected)"
	}
	fmt.Printf("cross traffic %-6s  probe %-14s cross %-14s eta=%.3f -> %s\n",
		crossName,
		core.FmtBps(probe.Throughput(10*time.Second, dur)),
		core.FmtBps(f.Throughput(10*time.Second, dur)),
		v.Mean, verdict)
}

func main() {
	fmt.Println("Nimbus elasticity probe, mode switching disabled (paper §3.2):")
	measure("cubic", cca.NewCubicCC())
	measure("cbr", cca.NewCBR(0.4*48e6))
}
