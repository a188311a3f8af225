package cca_test

import (
	"testing"
	"time"

	"repro/internal/cca"
	"repro/internal/qdisc"
	"repro/internal/sim"
	"repro/internal/transport"
)

// TestCopaModeSwitchingCompetes: with mode switching on, Copa detects
// a buffer-filling Cubic competitor (the queue never drains) and earns
// a much better share than plain Copa does.
func TestCopaModeSwitchingCompetes(t *testing.T) {
	if testing.Short() {
		t.Skip("long simulation")
	}
	run := func(switching bool) float64 {
		eng := &sim.Engine{}
		const rate = 24e6
		rtt := 40 * time.Millisecond
		link := sim.NewLink(eng, "l", rate, rtt/2, qdisc.NewDropTailBDP(rate, rtt, 2))
		copa := cca.NewCopaCC()
		copa.ModeSwitching = switching
		f1 := transport.NewFlow(eng, transport.FlowConfig{
			ID: 1, Path: []*sim.Link{link}, ReturnDelay: rtt / 2,
			CC: copa, Backlogged: true,
		})
		f1.Start()
		f2 := transport.NewFlow(eng, transport.FlowConfig{
			ID: 2, Path: []*sim.Link{link}, ReturnDelay: rtt / 2,
			CC: cca.NewCubicCC(), Backlogged: true,
		})
		f2.Start()
		eng.Run(45 * time.Second)
		if switching && copa.ModeTransitions == 0 {
			t.Error("mode switching never engaged against cubic")
		}
		return f1.Throughput(15*time.Second, 45*time.Second)
	}
	plain := run(false)
	switching := run(true)
	if switching <= plain {
		t.Errorf("switching copa (%.1f Mbit/s) should beat plain copa (%.1f)",
			switching/1e6, plain/1e6)
	}
}

// TestCopaModeSwitchingStaysDefaultAlone: alone on a link, Copa's own
// dynamics drain the queue periodically and it stays in default mode.
func TestCopaModeSwitchingStaysDefaultAlone(t *testing.T) {
	eng := &sim.Engine{}
	const rate = 24e6
	rtt := 40 * time.Millisecond
	link := sim.NewLink(eng, "l", rate, rtt/2, qdisc.NewDropTailBDP(rate, rtt, 2))
	copa := cca.NewCopaCC()
	copa.ModeSwitching = true
	f := transport.NewFlow(eng, transport.FlowConfig{
		ID: 1, Path: []*sim.Link{link}, ReturnDelay: rtt / 2,
		CC: copa, Backlogged: true,
	})
	f.Start()
	eng.Run(30 * time.Second)
	if copa.ModeTransitions != 0 {
		t.Error("copa switched to competitive with no cross traffic")
	}
	if tput := f.Throughput(10*time.Second, 30*time.Second); tput < 0.7*rate {
		t.Errorf("solo copa throughput = %.1f Mbit/s", tput/1e6)
	}
}
