package cca_test

import (
	"testing"
	"time"

	"repro/internal/cca"
	"repro/internal/qdisc"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/transport"
)

// pairShare runs two backlogged flows on a shared droptail link and
// returns (tput1, tput2) after warmup.
func pairShare(t *testing.T, name1, name2 string, rate float64, rtt time.Duration, bufBDP float64, dur time.Duration) (float64, float64) {
	t.Helper()
	eng := &sim.Engine{}
	link := sim.NewLink(eng, "l", rate, rtt/2, qdisc.NewDropTailBDP(rate, rtt, bufBDP))
	mk := func(id int, name string) *transport.Flow {
		cc, err := cca.New(name)
		if err != nil {
			t.Fatal(err)
		}
		f := transport.NewFlow(eng, transport.FlowConfig{
			ID: id, Path: []*sim.Link{link}, ReturnDelay: rtt / 2,
			CC: cc, Backlogged: true,
		})
		f.Watch(dur/3, dur)
		f.Start()
		return f
	}
	f1 := mk(1, name1)
	f2 := mk(2, name2)
	eng.Run(dur)
	return f1.Throughput(dur/3, dur), f2.Throughput(dur/3, dur)
}

// TestIntraCCAFairness: every CCA should share roughly evenly with a
// twin of itself — the self-fairness property all of them were
// designed for.
func TestIntraCCAFairness(t *testing.T) {
	if testing.Short() {
		t.Skip("long simulation")
	}
	for _, name := range []string{"reno", "newreno", "cubic", "vegas", "copa"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t1, t2 := pairShare(t, name, name, 24e6, 40*time.Millisecond, 1, 45*time.Second)
			j := stats.JainIndex([]float64{t1, t2})
			if j < 0.85 {
				t.Errorf("%s self-fairness jain = %.3f (%.1f vs %.1f Mbit/s)",
					name, j, t1/1e6, t2/1e6)
			}
			if t1+t2 < 0.75*24e6 {
				t.Errorf("%s/%s utilization = %.1f Mbit/s", name, name, (t1+t2)/1e6)
			}
		})
	}
}

// TestBBRSelfFairness: BBR twins also converge (their bandwidth
// estimates split the link).
func TestBBRSelfFairness(t *testing.T) {
	if testing.Short() {
		t.Skip("long simulation")
	}
	t1, t2 := pairShare(t, "bbr", "bbr", 24e6, 40*time.Millisecond, 2, 45*time.Second)
	if j := stats.JainIndex([]float64{t1, t2}); j < 0.7 {
		t.Errorf("bbr self-fairness jain = %.3f (%.1f vs %.1f)", j, t1/1e6, t2/1e6)
	}
}

// TestDelayBasedLosesToLossBased reproduces the classic asymmetry that
// motivated mode switching in Nimbus and Copa: a delay-based flow
// (Vegas) backs off as the loss-based flow (Cubic) fills the queue.
func TestDelayBasedLosesToLossBased(t *testing.T) {
	if testing.Short() {
		t.Skip("long simulation")
	}
	vegas, cubic := pairShare(t, "vegas", "cubic", 24e6, 40*time.Millisecond, 2, 45*time.Second)
	if vegas >= cubic {
		t.Errorf("vegas (%.1f) should lose to cubic (%.1f) on a deep FIFO", vegas/1e6, cubic/1e6)
	}
	if cubic < 0.55*24e6 {
		t.Errorf("cubic share = %.1f Mbit/s, expected dominance", cubic/1e6)
	}
}

// TestBBRTakesMoreThanFairShare pins the Ware et al. observation the
// paper cites in its opening paragraph.
func TestBBRTakesMoreThanFairShare(t *testing.T) {
	if testing.Short() {
		t.Skip("long simulation")
	}
	reno, bbr := pairShare(t, "reno", "bbr", 48e6, 40*time.Millisecond, 2, 45*time.Second)
	if bbr <= reno {
		t.Errorf("bbr (%.1f) should beat reno (%.1f)", bbr/1e6, reno/1e6)
	}
	share := bbr / (bbr + reno)
	if share < 0.55 {
		t.Errorf("bbr share = %.2f, want well above half", share)
	}
}

// TestCubicScalesBetterThanRenoOnLongFatPath: cubic's raison d'être —
// on a high-BDP path it recovers from a loss much faster than Reno's
// one-MSS-per-RTT crawl.
func TestCubicScalesBetterThanRenoOnLongFatPath(t *testing.T) {
	if testing.Short() {
		t.Skip("long simulation")
	}
	run := func(name string) float64 {
		eng := &sim.Engine{}
		const rate = 200e6
		rtt := 100 * time.Millisecond
		link := sim.NewLink(eng, "l", rate, rtt/2, qdisc.NewDropTailBDP(rate, rtt, 0.5))
		cc, err := cca.New(name)
		if err != nil {
			t.Fatal(err)
		}
		f := transport.NewFlow(eng, transport.FlowConfig{
			ID: 1, Path: []*sim.Link{link}, ReturnDelay: rtt / 2,
			CC: cc, Backlogged: true,
		})
		f.Watch(20*time.Second, 60*time.Second)
		f.Start()
		eng.Run(60 * time.Second)
		return f.Throughput(20*time.Second, 60*time.Second)
	}
	reno := run("reno")
	cubic := run("cubic")
	if cubic <= reno {
		t.Errorf("cubic (%.1f Mbit/s) should beat reno (%.1f) at 200 Mbit/s x 100ms",
			cubic/1e6, reno/1e6)
	}
}

// TestCopaKeepsQueueShorterThanCubic: Copa's delay target bounds its
// standing queue; Cubic fills whatever buffer exists.
func TestCopaKeepsQueueShorterThanCubic(t *testing.T) {
	if testing.Short() {
		t.Skip("long simulation")
	}
	run := func(name string) time.Duration {
		eng := &sim.Engine{}
		const rate = 24e6
		rtt := 40 * time.Millisecond
		link := sim.NewLink(eng, "l", rate, rtt/2, qdisc.NewDropTailBDP(rate, rtt, 4))
		cc, err := cca.New(name)
		if err != nil {
			t.Fatal(err)
		}
		f := transport.NewFlow(eng, transport.FlowConfig{
			ID: 1, Path: []*sim.Link{link}, ReturnDelay: rtt / 2,
			CC: cc, Backlogged: true,
		})
		f.Start()
		eng.Run(30 * time.Second)
		return f.Sender.Snapshot().SRTT
	}
	copa := run("copa")
	cubic := run("cubic")
	if copa >= cubic {
		t.Errorf("copa SRTT (%v) should stay below cubic's (%v)", copa, cubic)
	}
}
