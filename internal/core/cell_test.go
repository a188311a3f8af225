package core

import (
	"math/rand"
	"testing"
	"time"

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
		res, err := RunFig3(Fig3Config{RateBps: 8e6, OneWayDelay: 10 * time.Millisecond,
			Phases: kinds, PhaseDuration: phase, Seed: 1})
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
			res, err := RunHuntCell(HuntCellConfig{RateBps: 8e6, OneWayDelay: 10 * time.Millisecond,
				Cross: sched, Probe: probe, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			for i, p := range res.Phases {
				check(t, i, p.Kind, p.CrossTputBps)
			}
		})
	}
}

// TestInstallCross drives the installer directly: each kind carries
// traffic while active and none a second after its stop, and a bad
// kind is refused before anything is scheduled.
func TestInstallCross(t *testing.T) {
	const (
		rate = 48e6
		end  = 3 * time.Second
	)
	for _, kind := range traffic.PhaseKinds() {
		d := NewDumbbell(LinkSpec{RateBps: rate, OneWayDelay: 10 * time.Millisecond})
		g, err := d.installCross(crossSpec{
			kind: kind, flowID: 2, shortBase: 1000, shortRate: 20,
			rng: rand.New(rand.NewSource(1)), cbrBps: 0.4 * rate,
		})
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if (g == nil) != (kind == "idle") {
			t.Fatalf("%s: generator nil=%v", kind, g == nil)
		}
		g.watch(0, end)
		g.watch(end+time.Second, end+2*time.Second)
		g.start()
		if g != nil {
			d.Eng.ScheduleAt(end, g.stop)
		}
		d.Run(end + 2*time.Second)
		if got := g.throughput(0, end); (got > 0) != (kind != "idle") {
			t.Errorf("%s: throughput while active = %v", kind, got)
		}
		if got := g.throughput(end+time.Second, end+2*time.Second); got != 0 {
			t.Errorf("%s: throughput a second after stop = %v, want 0", kind, got)
		}
	}

	d := NewDumbbell(LinkSpec{RateBps: rate, OneWayDelay: 10 * time.Millisecond})
	pending := d.Eng.Pending()
	if _, err := d.installCross(crossSpec{kind: "warp-drive"}); err == nil {
		t.Error("unknown kind installed")
	}
	if d.Eng.Pending() != pending {
		t.Errorf("refused install scheduled events: pending %d -> %d", pending, d.Eng.Pending())
	}
}
