package core

import (
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/cca"
	"repro/internal/qdisc"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/transport"
)

func TestBuildQdiscKinds(t *testing.T) {
	h := hop{rateBps: 48e6, delay: 20 * time.Millisecond}
	cases := []struct {
		kind QueueKind
		want interface{}
	}{
		{QueueDropTail, &qdisc.DropTail{}},
		{QueueFQ, &qdisc.DRR{}},
		{QueueSFQ, &qdisc.SFQ{}},
		{QueueUserIso, &qdisc.UserIsolation{}},
		{QueueShaper, &qdisc.TokenBucketShaper{}},
		{QueuePolicer, &qdisc.TokenBucketPolicer{}},
	}
	for _, c := range cases {
		h.queue = c.kind
		q := h.discipline()
		if q == nil {
			t.Fatalf("%s: nil qdisc", c.kind)
		}
		switch c.kind {
		case QueueDropTail:
			if _, ok := q.(*qdisc.DropTail); !ok {
				t.Errorf("%s: got %T", c.kind, q)
			}
		case QueueFQ:
			if _, ok := q.(*qdisc.DRR); !ok {
				t.Errorf("%s: got %T", c.kind, q)
			}
		case QueueSFQ:
			if _, ok := q.(*qdisc.SFQ); !ok {
				t.Errorf("%s: got %T", c.kind, q)
			}
		case QueueUserIso:
			if _, ok := q.(*qdisc.UserIsolation); !ok {
				t.Errorf("%s: got %T", c.kind, q)
			}
		case QueueShaper:
			if _, ok := q.(*qdisc.TokenBucketShaper); !ok {
				t.Errorf("%s: got %T", c.kind, q)
			}
		case QueuePolicer:
			if _, ok := q.(*qdisc.TokenBucketPolicer); !ok {
				t.Errorf("%s: got %T", c.kind, q)
			}
		}
	}
}

// TestHopDefaults: a hop's buffer is bdp BDPs (default 1) over its own
// round trip with a 4-packet floor, one BDP over bufRTT when that is
// set, or exactly buf bytes; the shaper, policer and per-user rate is
// half the hop's rate unless shapeBps is set.
func TestHopDefaults(t *testing.T) {
	const rate, owd = 12e6, 5 * time.Millisecond // a 15,000-byte BDP
	cases := []struct {
		name string
		h    hop
		want sim.Qdisc
	}{
		{"1 BDP", hop{rateBps: rate, delay: owd}, qdisc.NewDropTail(15000)},
		{"2 BDP", hop{rateBps: rate, delay: owd, bdp: 2}, qdisc.NewDropTail(30000)},
		{"4-packet floor", hop{rateBps: 1e6, delay: owd}, qdisc.NewDropTail(4 * sim.MSS)},
		{"bufRTT", hop{rateBps: rate, delay: owd, bufRTT: 30 * time.Millisecond}, qdisc.NewDropTailBDP(rate, 30*time.Millisecond, 1)},
		{"buf bytes", hop{rateBps: rate, delay: owd, bdp: 2, buf: 3 * sim.MSS}, qdisc.NewDropTail(3 * sim.MSS)},
		{"policer at half rate", hop{rateBps: rate, delay: owd, queue: QueuePolicer}, qdisc.NewTokenBucketPolicer(rate / 2)},
		{"shaper", hop{rateBps: rate, delay: owd, queue: QueueShaper, shapeBps: 2e6}, qdisc.NewTokenBucketShaper(2e6, 15000)},
		{"per-user", hop{rateBps: rate, delay: owd, queue: QueueUserIso, shapeBps: 1e6, buf: 8 * sim.MSS},
			qdisc.NewUserIsolation(1e6, 16*sim.MSS, 8*sim.MSS)},
	}
	for _, c := range cases {
		if got := c.h.discipline(); !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: got %#v, want %#v", c.name, got, c.want)
		}
	}
}

func TestFmtBps(t *testing.T) {
	cases := []struct {
		in   float64
		want string
	}{
		{500, "500 bit/s"},
		{48e3, "48.00 kbit/s"},
		{48e6, "48.00 Mbit/s"},
		{1.5e9, "1.50 Gbit/s"},
	}
	for _, c := range cases {
		if got := FmtBps(c.in); got != c.want {
			t.Errorf("FmtBps(%v) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestCellBulkFlowFillsLink(t *testing.T) {
	c, err := newCell(cellSpec{
		hops:  []hop{{rateBps: 10e6, delay: 5 * time.Millisecond}},
		flows: []flow{{id: 1, user: 1, cc: mustCC(t, "reno"), watch: [][2]time.Duration{{time.Second, 5 * time.Second}}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.release()
	c.eng.Run(5 * time.Second)
	if c.src[0].flow.Throughput(time.Second, 5*time.Second) < 8e6 {
		t.Error("bulk flow did not fill the link")
	}
	if c.links[0].Stats().SentPackets == 0 {
		t.Error("no packets crossed the link")
	}
}

// TestThroughputMemoryIsFlat: a flow keeps the delivered bytes at its
// watched instants only, so a duel four times as long allocates about
// as much — the per-ack history it once kept grew with the run.
func TestThroughputMemoryIsFlat(t *testing.T) {
	alloc := func(dur time.Duration) uint64 {
		var before, after runtime.MemStats
		// Two GC cycles empty the engine pool (sync.Pool keeps an item
		// through one), so each run builds a fresh engine. With one, a
		// run found the pooled engine or not depending on the P it ran
		// on, and a ~190 kB engine landed on one side of the ratio.
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&before)
		if _, err := runDuel(scenario.Spec{CCAs: []string{"reno", "cubic"}, DurationS: dur.Seconds()}, nil); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	short, long := alloc(5*time.Second), alloc(20*time.Second)
	ratio := float64(long) / float64(short)
	t.Logf("5 s: %d B, 20 s: %d B, ratio %.2f", short, long, ratio)
	if ratio > 1.5 {
		t.Errorf("a 20 s duel allocates %.2fx a 5 s one (%d vs %d B), want <= 1.5x", ratio, long, short)
	}
}

func TestFig3RejectsUnknownPhase(t *testing.T) {
	_, err := runFig3(scenario.Spec{Phases: []string{"warp-drive"}, PhaseDurationS: 1}, nil)
	if err == nil || !strings.Contains(err.Error(), "unknown fig3 phase") {
		t.Errorf("err = %v", err)
	}
}

func TestFig1RejectsUnknownCCA(t *testing.T) {
	_, err := runFig1Cell(withDefaults(scenario.Spec{DurationS: 1}, fig1Defaults), nil, [2]string{"reno", "quic-magic"}, QueueDropTail)
	if err == nil {
		t.Error("unknown CCA should error")
	}
}

func mustCC(t *testing.T, name string) transport.CCA {
	t.Helper()
	cc, err := cca.New(name)
	if err != nil {
		t.Fatal(err)
	}
	return cc
}
