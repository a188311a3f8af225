// Quickstart: emulate two backlogged flows (Reno vs BBR) sharing a
// 48 Mbit/s access link and print their bandwidth allocations — the
// canonical CCA contention scenario the paper argues is rare in
// practice.
package main

import (
	"fmt"
	"time"

	"repro/internal/cca"
	"repro/internal/core"
	"repro/internal/stats"
)

func main() {
	// A dumbbell topology: one bottleneck link, droptail FIFO queue
	// sized to one bandwidth-delay product.
	d := core.NewDumbbell(core.LinkSpec{
		RateBps:     48e6,
		OneWayDelay: 20 * time.Millisecond,
		Queue:       core.QueueDropTail,
	})

	// Two persistently backlogged flows with different CCAs.
	reno := d.AddBulk(1, 1, cca.NewRenoCC())
	bbr := d.AddBulk(2, 2, cca.NewBBRCC())

	// Average throughput after a 10s warmup: name the window before the
	// run, so each flow keeps the delivered bytes at its two ends.
	reno.Watch(10*time.Second, 30*time.Second)
	bbr.Watch(10*time.Second, 30*time.Second)

	// Run 30 seconds of virtual time.
	d.Run(30 * time.Second)

	tReno := reno.Throughput(10*time.Second, 30*time.Second)
	tBBR := bbr.Throughput(10*time.Second, 30*time.Second)

	fmt.Println("two backlogged flows on a 48 Mbit/s, 40ms-RTT droptail link:")
	fmt.Printf("  reno: %s  (loss events: %d)\n", core.FmtBps(tReno), reno.Sender.LossEvents())
	fmt.Printf("  bbr:  %s  (loss events: %d)\n", core.FmtBps(tBBR), bbr.Sender.LossEvents())
	fmt.Printf("  jain fairness index: %.3f\n", stats.JainIndex([]float64{tReno, tBBR}))
	fmt.Println()
	fmt.Println("CCA identity determined this allocation. Re-run with")
	fmt.Println("core.QueueFQ or core.QueueUserIso and it no longer does —")
	fmt.Println("which is the paper's Figure 1 in two lines of code.")
}
