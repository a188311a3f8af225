package core

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/cca"
	"repro/internal/qdisc"
	"repro/internal/sim"
	"repro/internal/transport"
)

func TestBuildQdiscKinds(t *testing.T) {
	spec := LinkSpec{RateBps: 48e6, OneWayDelay: 20 * time.Millisecond}
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
		spec.Queue = c.kind
		q := BuildQdisc(new(sim.Engine), spec)
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

func TestLinkSpecDefaults(t *testing.T) {
	s := LinkSpec{RateBps: 10e6, OneWayDelay: 5 * time.Millisecond}.norm()
	if s.Queue != QueueDropTail || s.BufferBDP != 1 {
		t.Errorf("defaults = %+v", s)
	}
	if s.ShapeRateBps != 5e6 {
		t.Errorf("default shape rate = %v", s.ShapeRateBps)
	}
	if s.RTT() != 10*time.Millisecond {
		t.Errorf("RTT = %v", s.RTT())
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

func TestDumbbellAddBulk(t *testing.T) {
	d := NewDumbbell(LinkSpec{RateBps: 10e6, OneWayDelay: 5 * time.Millisecond})
	f := d.AddBulk(1, 1, mustCC(t, "reno"))
	f.Watch(time.Second, 5*time.Second)
	d.Run(5 * time.Second)
	if f.Throughput(time.Second, 5*time.Second) < 8e6 {
		t.Error("bulk flow did not fill the dumbbell")
	}
	if d.Link.Stats().SentPackets == 0 {
		t.Error("no packets crossed the link")
	}
}

// TestThroughputMemoryIsFlat: a flow keeps the delivered bytes at its
// watched instants only, so a duel four times as long allocates about
// as much — the per-ack history it once kept grew with the run.
func TestThroughputMemoryIsFlat(t *testing.T) {
	alloc := func(dur time.Duration) uint64 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		if _, err := RunDuel(DuelConfig{CCA1: "reno", CCA2: "cubic", Duration: dur}); err != nil {
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
	_, err := RunFig3(Fig3Config{Phases: []string{"warp-drive"}, PhaseDuration: time.Second})
	if err == nil || !strings.Contains(err.Error(), "unknown fig3 phase") {
		t.Errorf("err = %v", err)
	}
}

func TestFig1RejectsUnknownCCA(t *testing.T) {
	_, err := runFig1Cell(Fig1Config{Duration: time.Second}.norm(), [2]string{"reno", "quic-magic"}, QueueDropTail)
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
