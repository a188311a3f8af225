package core

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/cca"
	"repro/internal/faults"
	"repro/internal/qdisc"
	"repro/internal/sim"
	"repro/internal/traffic"
	"repro/internal/transport"
)

// TestManyFlowSmoke runs a small cell with the invariant checker
// attached: the victims must hold a fair, non-trivial allocation and
// the background population must actually churn.
func TestManyFlowSmoke(t *testing.T) {
	res, err := RunManyFlow(ManyFlowConfig{
		Users:    20,
		Duration: 3 * time.Second,
		Seed:     1,
		Check:    true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Victim1Bps <= 0 || res.Victim2Bps <= 0 {
		t.Fatalf("victims starved: %.0f / %.0f bps", res.Victim1Bps, res.Victim2Bps)
	}
	if res.VictimJain < 0.9 {
		t.Errorf("victim Jain %.3f, want >= 0.9 under per-user isolation", res.VictimJain)
	}
	if res.FlowsStarted == 0 || res.FlowsCompleted == 0 {
		t.Errorf("background churn inert: %d started, %d completed", res.FlowsStarted, res.FlowsCompleted)
	}
	if res.Util <= 0 || res.Util > 1 {
		t.Errorf("utilization %.3f out of range", res.Util)
	}
	if res.MaxLivePackets <= 0 {
		t.Errorf("checker reported no live packets; is it attached?")
	}
}

// TestManyFlowDeterministic verifies the cell is byte-replayable: two
// runs of the same config agree on every reported number.
func TestManyFlowDeterministic(t *testing.T) {
	cfg := ManyFlowConfig{Users: 30, Duration: 2 * time.Second, Seed: 7}
	a, err := RunManyFlow(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunManyFlow(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Victim1Bps != b.Victim1Bps || a.Victim2Bps != b.Victim2Bps {
		t.Errorf("victim throughput diverged: %v/%v vs %v/%v",
			a.Victim1Bps, a.Victim2Bps, b.Victim1Bps, b.Victim2Bps)
	}
	if a.FlowsStarted != b.FlowsStarted || a.FlowsCompleted != b.FlowsCompleted {
		t.Errorf("churn diverged: %d/%d vs %d/%d",
			a.FlowsStarted, a.FlowsCompleted, b.FlowsStarted, b.FlowsCompleted)
	}
	if a.Events != b.Events {
		t.Errorf("event count diverged: %d vs %d", a.Events, b.Events)
	}
	if a.BackgroundBps != b.BackgroundBps {
		t.Errorf("background rate diverged: %v vs %v", a.BackgroundBps, b.BackgroundBps)
	}
}

// TestManyFlowHybridAB is the fidelity contract for the fluid
// aggregate: at 1000 background users, running all but 32 of them as
// the fluid aggregate must reproduce the packet-level cell's victim
// throughputs and fairness within 5%.
func TestManyFlowHybridAB(t *testing.T) {
	if testing.Short() {
		t.Skip("1k-user A/B cell")
	}
	base := ManyFlowConfig{
		Users:    1000,
		Duration: 10 * time.Second,
		Seed:     1,
	}
	packet, err := RunManyFlow(base)
	if err != nil {
		t.Fatal(err)
	}
	hybrid := base
	hybrid.FluidAbove = 32
	fluid, err := RunManyFlow(hybrid)
	if err != nil {
		t.Fatal(err)
	}
	if fluid.FluidUsers != base.Users-hybrid.FluidAbove {
		t.Fatalf("fluid users %d, want %d", fluid.FluidUsers, base.Users-hybrid.FluidAbove)
	}
	relDiff := func(a, b float64) float64 { return math.Abs(a-b) / b }
	if d := relDiff(fluid.Victim1Bps, packet.Victim1Bps); d > 0.05 {
		t.Errorf("victim1 hybrid %.0f vs packet %.0f bps: %.1f%% divergence, want <= 5%%",
			fluid.Victim1Bps, packet.Victim1Bps, 100*d)
	}
	if d := relDiff(fluid.Victim2Bps, packet.Victim2Bps); d > 0.05 {
		t.Errorf("victim2 hybrid %.0f vs packet %.0f bps: %.1f%% divergence, want <= 5%%",
			fluid.Victim2Bps, packet.Victim2Bps, 100*d)
	}
	if d := math.Abs(fluid.VictimJain - packet.VictimJain); d > 0.05 {
		t.Errorf("Jain hybrid %.3f vs packet %.3f: diff %.3f, want <= 0.05",
			fluid.VictimJain, packet.VictimJain, d)
	}
}

// TestFluidDrawsChurnSizes holds the fluid model to its contract with
// the packet-level churn it stands in for: fed the same derived
// randomness stream, a fluid user and a traffic.Churn user draw the
// same sequence of transfer sizes — same draw order, and the same two
// distributions (traffic.ShortSizes / traffic.LongSizes).
func TestFluidDrawsChurnSizes(t *testing.T) {
	const transfers = 20
	cfg := ManyFlowConfig{Users: 1, Seed: 11, RateBps: 100e9}.norm()
	fastLink := func() (*sim.Engine, *sim.Link) {
		eng := &sim.Engine{}
		return eng, sim.NewLink(eng, "l", cfg.RateBps, time.Microsecond, qdisc.NewDropTail(1<<30))
	}

	eng, link := fastLink()
	churn := traffic.NewChurn(eng, traffic.ChurnConfig{
		MeanThink: churnThink, LongFrac: churnLongFrac,
		NewCC: func() transport.CCA { return cca.NewRenoCC() },
		Path:  []*sim.Link{link}, ReturnDelay: time.Microsecond,
		Rand: rand.New(rand.NewSource(faults.DeriveSeed(cfg.Seed, "manyflow/churn/0"))),
	})
	var want []int64
	for done := int64(0); len(want) < transfers && eng.Step(); {
		if churn.Completed > len(want) {
			want = append(want, churn.AckedBytes()-done)
			done = churn.AckedBytes()
		}
	}

	eng, link = fastLink()
	fluid := newFluidAggregate(eng, link, cfg)
	var got []int64
	for len(got) < transfers && eng.Step() {
		if fluid.Started > len(got) {
			got = append(got, fluid.users[0].remaining)
		}
	}
	if len(want) != transfers || !reflect.DeepEqual(got, want) {
		t.Errorf("fluid user drew %v, packet-level churn drew %v", got, want)
	}
	if fluid.LongStarted == 0 || fluid.LongStarted == transfers {
		t.Errorf("%d of %d transfers were long; the test must cover both distributions", fluid.LongStarted, transfers)
	}
}
