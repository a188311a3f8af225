package core

import (
	"fmt"
	"io"
	"time"

	"repro/internal/cca"
	"repro/internal/obs"
	"repro/internal/transport"
)

// AccessLinkConfig parameterizes the §2.2 access-link mix: one user's
// ABR video stream, web browsing as Poisson short flows, and one
// software-update bulk flow share a home link. It shows who is
// application-limited and whether the video's quality of experience
// depends on the bulk flow's CCA and the link's queue.
type AccessLinkConfig struct {
	// BulkCCA names the update flow's controller (default reno).
	BulkCCA string
	// RateBps is the link rate (default 100 Mbit/s).
	RateBps float64
	// OneWayDelay is the propagation delay (default 15ms -> 30ms RTT).
	OneWayDelay time.Duration
	// Queue selects the discipline (default droptail).
	Queue QueueKind
	// Duration is the run length (default 60s); the first sixth is
	// warm-up.
	Duration time.Duration
	// Seed drives the web arrivals.
	Seed int64
	// Obs, when non-nil, receives the run's trace events and metric
	// registrations.
	Obs *obs.Scope `json:"-"`
}

func (c AccessLinkConfig) norm() AccessLinkConfig {
	if c.BulkCCA == "" {
		c.BulkCCA = "reno"
	}
	if c.RateBps <= 0 {
		c.RateBps = 100e6
	}
	if c.OneWayDelay <= 0 {
		c.OneWayDelay = 15 * time.Millisecond
	}
	if c.Queue == "" {
		c.Queue = QueueDropTail
	}
	if c.Duration <= 0 {
		c.Duration = 60 * time.Second
	}
	return c
}

// AccessLinkResult is the mix's outcome after warm-up.
type AccessLinkResult struct {
	Config AccessLinkConfig
	// VideoTputBps is the video's achieved rate, VideoBitrateBps its
	// final ladder rung, VideoAppLimited the fraction of its lifetime
	// it had nothing to send, and Rebuffers its playback stalls.
	VideoTputBps, VideoBitrateBps, VideoAppLimited float64
	Rebuffers                                      int
	// UpdateTputBps is the bulk flow's achieved rate.
	UpdateTputBps float64
	// WebCompleted and WebActive count finished and running web flows.
	WebCompleted, WebActive int
}

// RunAccessLink builds the mix — video as flow 1, web flows from ID
// 1000, the update as flow 2, all one user — and runs it.
func RunAccessLink(cfg AccessLinkConfig) (*AccessLinkResult, error) {
	cfg = cfg.norm()
	bulk, err := cca.New(cfg.BulkCCA)
	if err != nil {
		return nil, fmt.Errorf("core: accesslink: %w", err)
	}
	from := cfg.Duration / 6
	w := [][2]time.Duration{{from, cfg.Duration}}
	c, err := newCell(cellSpec{
		hops: []hop{{rateBps: cfg.RateBps, delay: cfg.OneWayDelay, queue: cfg.Queue}},
		flows: []flow{
			{id: 1, user: 1, kind: "video", watch: w},
			{id: 1000, user: 1, kind: "short", shortRate: 3, newCC: func() transport.CCA { return cca.NewCubicCC() }},
			{id: 2, user: 1, cc: bulk, watch: w},
		},
		seed: cfg.Seed,
		obs:  cfg.Obs,
	})
	if err != nil {
		return nil, fmt.Errorf("core: accesslink: %w", err)
	}
	defer c.release()
	c.eng.Run(cfg.Duration)

	video, web, update := c.src[0].video, c.src[1].short, c.src[2].flow
	return &AccessLinkResult{
		Config:          cfg,
		VideoTputBps:    video.Flow.Throughput(from, cfg.Duration),
		VideoBitrateBps: video.Bitrate(),
		Rebuffers:       video.Rebuffers,
		VideoAppLimited: video.Flow.Sender.Snapshot().AppLimitedFraction(),
		UpdateTputBps:   update.Throughput(from, cfg.Duration),
		WebCompleted:    web.Completed,
		WebActive:       web.ActiveFlows(),
	}, nil
}

// WriteTable renders the outcome.
func (r *AccessLinkResult) WriteTable(w io.Writer) {
	fmt.Fprintf(w, "accesslink (§2.2): video + web + one update on a %s, %v-RTT link; update uses %s, %s queue\n",
		FmtBps(r.Config.RateBps), 2*r.Config.OneWayDelay, r.Config.BulkCCA, r.Config.Queue)
	fmt.Fprintf(w, "  video:  %s achieved, final bitrate %s, rebuffers %d, app-limited %.0f%% of time\n",
		FmtBps(r.VideoTputBps), FmtBps(r.VideoBitrateBps), r.Rebuffers, 100*r.VideoAppLimited)
	fmt.Fprintf(w, "  update: %s\n", FmtBps(r.UpdateTputBps))
	fmt.Fprintf(w, "  web:    %d flows completed, %d active\n", r.WebCompleted, r.WebActive)
}
