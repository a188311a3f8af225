package core

import (
	"testing"
	"time"

	"repro/internal/scenario"
	"repro/internal/traffic"
)

// TestEveryPhaseKindRunsInEveryPhasedCell: a kind valid in
// traffic.ValidateSchedule must run in fig3 and in both huntcell modes
// (fig3 once rejected "aimd" because it kept its own list), and every
// kind but "idle" must actually carry traffic.
func TestEveryPhaseKindRunsInEveryPhasedCell(t *testing.T) {
	kinds := traffic.PhaseKinds()
	const phase = 6 * time.Second // longer than fig3's 5 s settle
	sched := make([]traffic.Phase, len(kinds))
	for i, k := range kinds {
		sched[i] = traffic.Phase{Kind: k, DurS: phase.Seconds()}
	}

	check := func(t *testing.T, i int, kind string, crossBps float64) {
		t.Helper()
		if kind != kinds[i] {
			t.Fatalf("phase %d is %q, want %q", i, kind, kinds[i])
		}
		if kind == "idle" && crossBps != 0 {
			t.Errorf("idle phase carried %v bit/s", crossBps)
		}
		if kind != "idle" && crossBps <= 0 {
			t.Errorf("phase %q reports no cross throughput", kind)
		}
	}

	t.Run("fig3", func(t *testing.T) {
		res, err := runFig3(scenario.Spec{RateBps: 8e6, RTTMs: 20,
			Phases: kinds, PhaseDurationS: phase.Seconds(), Seed: 1}, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i, p := range res.Phases {
			check(t, i, p.Name, p.CrossTputBps)
		}
	})
	for _, probe := range []bool{false, true} {
		name := "huntcell victim"
		if probe {
			name = "huntcell probe"
		}
		t.Run(name, func(t *testing.T) {
			res, err := runHuntCell(scenario.Spec{RateBps: 8e6, RTTMs: 20,
				Cross: sched, Probe: probe, Seed: 1}, nil)
			if err != nil {
				t.Fatal(err)
			}
			for i, p := range res.Phases {
				check(t, i, p.Kind, p.CrossTputBps)
			}
		})
	}
}

// TestInstallCross adds each cross-traffic kind to a cell directly:
// each carries traffic while active and none a second after its stop,
// and a bad kind is refused before anything is scheduled.
func TestInstallCross(t *testing.T) {
	const (
		rate = 48e6
		end  = 3 * time.Second
	)
	spec := cellSpec{hops: []hop{{rateBps: rate, delay: 10 * time.Millisecond}}, seed: 1}
	for _, kind := range traffic.PhaseKinds() {
		c, err := newCell(spec)
		if err != nil {
			t.Fatal(err)
		}
		s, err := c.add(&flow{
			id: 2, user: crossUser, kind: kind, shortRate: 20, cbrBps: 0.4 * rate, stop: end,
			watch: [][2]time.Duration{{0, end}, {end + time.Second, end + 2*time.Second}},
		})
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if (s == nil) != (kind == "idle") {
			t.Fatalf("%s: source nil=%v", kind, s == nil)
		}
		c.eng.Run(end + 2*time.Second)
		if got := s.throughput(0, end); (got > 0) != (kind != "idle") {
			t.Errorf("%s: throughput while active = %v", kind, got)
		}
		if got := s.throughput(end+time.Second, end+2*time.Second); got != 0 {
			t.Errorf("%s: throughput a second after stop = %v, want 0", kind, got)
		}
		c.release()
	}

	c, err := newCell(spec)
	if err != nil {
		t.Fatal(err)
	}
	defer c.release()
	pending := c.eng.Pending()
	if _, err := c.add(&flow{kind: "warp-drive"}); err == nil {
		t.Error("unknown kind installed")
	}
	if c.eng.Pending() != pending {
		t.Errorf("refused install scheduled events: pending %d -> %d", pending, c.eng.Pending())
	}
	spec.flows = []flow{{kind: "warp-drive"}}
	if _, err := newCell(spec); err == nil {
		t.Error("a cell with an unknown kind was built")
	}
}

// TestRouteSumsHopDelays: a flow's acks return after the sum of its
// path's hop delays, and a nil path is hop 0 alone.
func TestRouteSumsHopDelays(t *testing.T) {
	c, err := newCell(cellSpec{hops: []hop{
		{name: "core", rateBps: 1e9, delay: 5 * time.Millisecond},
		{name: "access", rateBps: 1e7, delay: 10 * time.Millisecond},
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.release()
	links, ret := c.route([]int{1, 0})
	if len(links) != 2 || links[0].Name != "access" || links[1].Name != "core" || ret != 15*time.Millisecond {
		t.Errorf("route [1 0] = %v links, return delay %v", links, ret)
	}
	links, ret = c.route(nil)
	if len(links) != 1 || links[0].Name != "core" || ret != 5*time.Millisecond {
		t.Errorf("route nil = %v links, return delay %v", links, ret)
	}
}
