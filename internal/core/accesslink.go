package core

import (
	"fmt"
	"io"
	"time"

	"repro/internal/cca"
	"repro/internal/obs"
	"repro/internal/scenario"
	"repro/internal/transport"
)

func init() {
	scenario.Register(scenario.Experiment{
		Name:        "accesslink",
		Description: "§2.2 access-link mix: ABR video, web short flows and one bulk update on a home link",
		// The home link and the update's controller: a 100 Mbit/s
		// droptail link on a 30 ms round trip, for 60 s, the update
		// under reno.
		Defaults: scenario.Spec{Seed: 42, RateBps: 100e6, RTTMs: 30, Queue: string(QueueDropTail), DurationS: 60,
			CCAs: []string{"reno"}},
		Run:   run(runAccessLink),
		Table: table[*AccessLinkResult](),
	})
}

// AccessLinkResult is the mix's outcome after warm-up.
type AccessLinkResult struct {
	// VideoTputBps is the video's achieved rate, VideoBitrateBps its
	// final ladder rung, VideoAppLimited the fraction of its lifetime
	// it had nothing to send, and Rebuffers its playback stalls.
	VideoTputBps, VideoBitrateBps, VideoAppLimited float64
	Rebuffers                                      int
	// UpdateTputBps is the bulk flow's achieved rate.
	UpdateTputBps float64
	// WebCompleted and WebActive count finished and running web flows.
	WebCompleted, WebActive int

	sp scenario.Spec
}

// runAccessLink runs the §2.2 access-link mix: one user's ABR video
// stream, web browsing as Poisson short flows drawn from the spec's
// seed, and one software-update bulk flow under the spec's first CCA
// share a home link. It shows who is application-limited and whether
// the video's quality of experience depends on the bulk flow's CCA and
// the link's queue. Video is flow 1, web flows start from ID 1000, the
// update is flow 2, all one user; the first sixth of the run is
// warm-up.
func runAccessLink(sp scenario.Spec, sc *obs.Scope) (*AccessLinkResult, error) {
	bulk, err := cca.New(sp.CCAs[0])
	if err != nil {
		return nil, fmt.Errorf("core: accesslink: %w", err)
	}
	dur := sp.Duration()
	from := dur / 6
	w := [][2]time.Duration{{from, dur}}
	c, err := newCell(cellSpec{
		hops: []hop{{rateBps: sp.RateBps, delay: oneWay(sp), queue: QueueKind(sp.Queue)}},
		flows: []flow{
			{id: 1, user: 1, kind: "video", watch: w},
			{id: 1000, user: 1, kind: "short", shortRate: 3, newCC: func() transport.CCA { return cca.NewCubicCC() }},
			{id: 2, user: 1, cc: bulk, watch: w},
		},
		seed: sp.Seed,
		obs:  sc,
	})
	if err != nil {
		return nil, fmt.Errorf("core: accesslink: %w", err)
	}
	defer c.release()
	c.eng.Run(dur)

	video, web, update := c.src[0].video, c.src[1].short, c.src[2].flow
	return &AccessLinkResult{
		sp:              sp,
		VideoTputBps:    video.Flow.Throughput(from, dur),
		VideoBitrateBps: video.Bitrate(),
		Rebuffers:       video.Rebuffers,
		VideoAppLimited: video.Flow.Sender.Snapshot().AppLimitedFraction(),
		UpdateTputBps:   update.Throughput(from, dur),
		WebCompleted:    web.Completed,
		WebActive:       web.ActiveFlows(),
	}, nil
}

// WriteTable renders the outcome.
func (r *AccessLinkResult) WriteTable(w io.Writer) {
	fmt.Fprintf(w, "accesslink (§2.2): video + web + one update on a %s, %v-RTT link; update uses %s, %s queue\n",
		FmtBps(r.sp.RateBps), 2*oneWay(r.sp), r.sp.CCAs[0], r.sp.Queue)
	fmt.Fprintf(w, "  video:  %s achieved, final bitrate %s, rebuffers %d, app-limited %.0f%% of time\n",
		FmtBps(r.VideoTputBps), FmtBps(r.VideoBitrateBps), r.Rebuffers, 100*r.VideoAppLimited)
	fmt.Fprintf(w, "  update: %s\n", FmtBps(r.UpdateTputBps))
	fmt.Fprintf(w, "  web:    %d flows completed, %d active\n", r.WebCompleted, r.WebActive)
}
