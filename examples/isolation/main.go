// Isolation: quantify Figure 1's claim — in-network bandwidth
// management (fair queueing, per-user throttling + isolation) removes
// CCA identity from bandwidth allocation, while FIFO queues let
// aggressive CCAs dominate. This drives the same harness as
// `ccac run fig1`.
package main

import (
	"fmt"
	"os"
	"time"

	"repro/internal/core"
)

func main() {
	res, err := core.RunFig1(core.Fig1Config{
		Duration: 40 * time.Second,
		Pairs:    [][2]string{{"reno", "bbr"}, {"reno", "cubic"}, {"vegas", "cubic"}},
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	res.WriteTable(os.Stdout)

	fmt.Println()
	fifo := res.Row("reno", "bbr", core.QueueDropTail)
	fq := res.Row("reno", "bbr", core.QueueFQ)
	if fifo != nil && fq != nil {
		fmt.Printf("reno vs bbr: FIFO gives bbr %.0f%% of the link; fair queueing gives it %.0f%%.\n",
			100*fifo.Share2, 100*fq.Share2)
		fmt.Println("Under isolation, the CCA no longer determines the allocation —")
		fmt.Println("the operator's scheduler does. (§2.1)")
	}
}
