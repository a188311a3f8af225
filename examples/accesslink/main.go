// Accesslink: the paper's §2.2 scenario — a realistic access-link
// workload (an ABR video stream, web browsing as Poisson short flows,
// and one software-update bulk flow) on a 100 Mbit/s home link. The
// example shows who is application-limited and whether the video's
// quality of experience depends on the competing bulk flow's CCA.
package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/cca"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/traffic"
	"repro/internal/transport"
)

func run(bulkCC string, queue core.QueueKind) {
	d := core.NewDumbbell(core.LinkSpec{
		RateBps:     100e6,
		OneWayDelay: 15 * time.Millisecond,
		Queue:       queue,
	})
	rng := rand.New(rand.NewSource(42))

	video := traffic.NewVideo(d.Eng, d.FlowConfig(1, 1, cca.NewCubicCC()))

	web := traffic.NewShortFlows(d.Eng, traffic.ShortFlowsConfig{
		ArrivalRate: 3,
		Path:        []*sim.Link{d.Link},
		ReturnDelay: d.Spec.OneWayDelay,
		UserID:      1,
		NewCC:       func() transport.CCA { return cca.NewCubicCC() },
		BaseFlowID:  1000,
		Rand:        rng,
	})

	cc, err := cca.New(bulkCC)
	if err != nil {
		panic(err)
	}
	update := d.AddBulk(2, 1, cc)

	const dur = 60 * time.Second
	video.Flow.Watch(10*time.Second, dur)
	update.Watch(10*time.Second, dur)
	d.Run(dur)

	vt := video.Flow.Throughput(10*time.Second, dur)
	snap := video.Flow.Sender.Snapshot()
	fmt.Printf("bulk flow uses %s, %s queue:\n", bulkCC, queue)
	fmt.Printf("  video:  %s achieved, final bitrate %s, rebuffers %d, app-limited %.0f%% of time\n",
		core.FmtBps(vt), core.FmtBps(video.Bitrate()), video.Rebuffers, 100*snap.AppLimitedFraction())
	fmt.Printf("  update: %s\n", core.FmtBps(update.Throughput(10*time.Second, dur)))
	fmt.Printf("  web:    %d flows completed, %d active\n", web.Completed, web.ActiveFlows())
	fmt.Println()
}

func main() {
	fmt.Println("§2.2/§2.3: an access link whose traffic is mostly app-limited.")
	fmt.Println("Against a loss-based bulk flow the video's bounded demand is met;")
	fmt.Println("an aggressive model-based CCA (BBR) can still crush it on a plain")
	fmt.Println("FIFO — and a home router running fq_codel (cheap, deployed flow")
	fmt.Println("isolation) restores it, which is §2.3's answer.")
	fmt.Println()
	run("reno", core.QueueDropTail)
	run("bbr", core.QueueDropTail)
	run("bbr", core.QueueFQCoDel)
}
