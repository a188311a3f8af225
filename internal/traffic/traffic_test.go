package traffic

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/cca"
	"repro/internal/qdisc"
	"repro/internal/sim"
	"repro/internal/transport"
)

func testLink(rate float64, owd time.Duration) (*sim.Engine, *sim.Link) {
	eng := &sim.Engine{}
	return eng, sim.NewLink(eng, "l", rate, owd, qdisc.NewDropTailBDP(rate, 2*owd, 1))
}

func flowCfg(id int, link *sim.Link, owd time.Duration, cc transport.CCA) transport.FlowConfig {
	return transport.FlowConfig{
		ID: id, UserID: 1, Path: []*sim.Link{link}, ReturnDelay: owd, CC: cc,
	}
}

func TestBoundedParetoRange(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := BoundedPareto{Min: 1000, Max: 1e6, Alpha: 1.2}
		for i := 0; i < 100; i++ {
			s := d.Sample(rng)
			if s < 1000 || s > 1e6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestBoundedParetoIsHeavyTailed(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d := BoundedPareto{Min: 6 * 1024, Max: 3 << 20, Alpha: 1.2}
	var sizes []float64
	for i := 0; i < 5000; i++ {
		sizes = append(sizes, float64(d.Sample(rng)))
	}
	// Median far below mean: heavy tail.
	var sum float64
	for _, s := range sizes {
		sum += s
	}
	mean := sum / float64(len(sizes))
	// Count below mean: should be a large majority.
	below := 0
	for _, s := range sizes {
		if s < mean {
			below++
		}
	}
	if frac := float64(below) / float64(len(sizes)); frac < 0.6 {
		t.Errorf("fraction below mean = %.2f, want heavy tail", frac)
	}
}

func TestFixedSize(t *testing.T) {
	if FixedSize(500).Sample(nil) != 500 {
		t.Error("FixedSize should return its value")
	}
}

func TestShortFlowsPoissonArrivals(t *testing.T) {
	eng, link := testLink(1e9, time.Millisecond) // fat link: no queueing
	rng := rand.New(rand.NewSource(2))
	g := NewShortFlows(eng, ShortFlowsConfig{
		ArrivalRate: 20,
		Sizes:       FixedSize(15000),
		Path:        []*sim.Link{link},
		ReturnDelay: time.Millisecond,
		NewCC:       func() transport.CCA { return cca.NewRenoCC() },
		BaseFlowID:  100,
		Rand:        rng,
	})
	eng.Run(10 * time.Second)
	// Poisson(20/s) for 10s: ~200 arrivals; 3-sigma ~ +-42.
	if g.Started < 140 || g.Started > 260 {
		t.Errorf("arrivals = %d, want ~200", g.Started)
	}
	// On a fat link every flow completes quickly.
	if g.Completed < g.Started-5 {
		t.Errorf("completed %d of %d", g.Completed, g.Started)
	}
	if len(g.FCTs) != g.Completed {
		t.Errorf("FCTs = %d, completed = %d", len(g.FCTs), g.Completed)
	}
	for _, fct := range g.FCTs {
		if fct <= 0 || fct > 1 {
			t.Errorf("implausible FCT %v on a fat link", fct)
		}
	}
}

func TestShortFlowsStop(t *testing.T) {
	eng, link := testLink(1e9, time.Millisecond)
	rng := rand.New(rand.NewSource(3))
	g := NewShortFlows(eng, ShortFlowsConfig{
		ArrivalRate: 50,
		Sizes:       FixedSize(3000),
		Path:        []*sim.Link{link},
		ReturnDelay: time.Millisecond,
		NewCC:       func() transport.CCA { return cca.NewRenoCC() },
		Rand:        rng,
	})
	eng.Run(2 * time.Second)
	g.Stop()
	started := g.Started
	eng.Run(4 * time.Second)
	if g.Started != started {
		t.Errorf("arrivals continued after Stop: %d -> %d", started, g.Started)
	}
	if g.ActiveFlows() != 0 {
		t.Errorf("flows still active: %d", g.ActiveFlows())
	}
}

func TestVideoIsAppLimited(t *testing.T) {
	eng, link := testLink(100e6, 10*time.Millisecond)
	v := NewVideo(eng, flowCfg(1, link, 10*time.Millisecond, cca.NewCubicCC()))
	v.Flow.Watch(10*time.Second, 60*time.Second)
	eng.Run(60 * time.Second)
	snap := v.Flow.Sender.Snapshot()
	// The stream is bounded by its ladder: well under link rate, and
	// app-limited a large fraction of the time.
	tput := v.Flow.Throughput(10*time.Second, 60*time.Second)
	if tput > 12e6 {
		t.Errorf("video throughput = %.1f Mbit/s, should be ladder-bounded", tput/1e6)
	}
	if snap.AppLimitedFraction() < 0.3 {
		t.Errorf("app-limited fraction = %.2f, want substantial", snap.AppLimitedFraction())
	}
	if v.ChunksFetched < 20 {
		t.Errorf("chunks = %d", v.ChunksFetched)
	}
}

func TestVideoClimbsLadderOnFastLink(t *testing.T) {
	eng, link := testLink(100e6, 10*time.Millisecond)
	v := NewVideo(eng, flowCfg(1, link, 10*time.Millisecond, cca.NewCubicCC()))
	eng.Run(60 * time.Second)
	if v.Bitrate() < 6e6 {
		t.Errorf("bitrate = %.1f Mbit/s, should reach the top rungs on a fast link", v.Bitrate()/1e6)
	}
	if v.Rebuffers > 1 {
		t.Errorf("rebuffers = %d on an uncontended fast link", v.Rebuffers)
	}
}

func TestVideoDowngradesOnSlowLink(t *testing.T) {
	// 3 Mbit/s link: the stream must settle below 3 Mbit/s rungs.
	eng, link := testLink(3e6, 20*time.Millisecond)
	v := NewVideo(eng, flowCfg(1, link, 20*time.Millisecond, cca.NewCubicCC()))
	eng.Run(90 * time.Second)
	if v.Bitrate() > 2.6e6 {
		t.Errorf("bitrate = %.1f Mbit/s on a 3 Mbit/s link", v.Bitrate()/1e6)
	}
	if v.ChunksFetched == 0 {
		t.Error("no chunks fetched")
	}
}

func TestVideoBufferBounded(t *testing.T) {
	eng, link := testLink(50e6, 10*time.Millisecond)
	v := NewVideo(eng, flowCfg(1, link, 10*time.Millisecond, cca.NewCubicCC()))
	for at := time.Second; at <= 120*time.Second; at += time.Second {
		eng.Run(at)
		if b := buffered(v); b > videoBufferHigh+videoChunk+time.Second { // high watermark + one chunk of slack
			t.Fatalf("buffer exceeded bound at %v: %v", at, b)
		}
	}
	if buffered(v) <= 0 {
		t.Error("buffer should be positive at steady state")
	}
}

// buffered is v's playback buffer level now.
func buffered(v *Video) time.Duration {
	v.advancePlayback()
	return v.buffer
}

func TestVideoStopCeasesTraffic(t *testing.T) {
	eng, link := testLink(50e6, 10*time.Millisecond)
	v := NewVideo(eng, flowCfg(1, link, 10*time.Millisecond, cca.NewCubicCC()))
	eng.Run(10 * time.Second)
	v.Stop()
	sent := v.Flow.Sender.Snapshot().BytesSent
	eng.Run(20 * time.Second)
	// In-flight chunk may finish but no new chunks should start.
	if v.Flow.Sender.Snapshot().BytesSent > sent+8<<20 {
		t.Errorf("traffic continued after Stop: %d -> %d", sent, v.Flow.Sender.Snapshot().BytesSent)
	}
}

func TestOnOffAlternates(t *testing.T) {
	eng, link := testLink(10e6, 5*time.Millisecond)
	o := NewOnOff(eng, flowCfg(1, link, 5*time.Millisecond, cca.NewRenoCC()),
		OnOffConfig{On: time.Second, Off: time.Second})
	o.Flow.Watch(2*time.Second, 10*time.Second)
	eng.Run(10 * time.Second)
	tput := o.Flow.Throughput(2*time.Second, 10*time.Second)
	// ~50% duty cycle: throughput well below the link rate but
	// nonzero.
	if tput < 2e6 || tput > 8e6 {
		t.Errorf("on-off throughput = %.1f Mbit/s, want roughly half of 10", tput/1e6)
	}
}

func TestShortFlowsDeterministicWithSeed(t *testing.T) {
	run := func() (int, float64) {
		eng, link := testLink(100e6, 5*time.Millisecond)
		rng := rand.New(rand.NewSource(42))
		g := NewShortFlows(eng, ShortFlowsConfig{
			ArrivalRate: 10,
			Path:        []*sim.Link{link},
			ReturnDelay: 5 * time.Millisecond,
			NewCC:       func() transport.CCA { return cca.NewRenoCC() },
			Rand:        rng,
		})
		eng.Run(5 * time.Second)
		var sum float64
		for _, f := range g.FCTs {
			sum += f
		}
		return g.Started, sum
	}
	n1, s1 := run()
	n2, s2 := run()
	if n1 != n2 || math.Abs(s1-s2) > 1e-12 {
		t.Errorf("nondeterministic: (%d, %v) vs (%d, %v)", n1, s1, n2, s2)
	}
}
