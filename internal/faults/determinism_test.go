package faults_test

import (
	"testing"
	"time"

	"repro/internal/cca"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/qdisc"
	"repro/internal/sim"
	"repro/internal/transport"
)

// ackLog keeps the sender's per-ack (time, bytes acked) sequence, read
// off its EvAck events.
type ackLog []ackPoint

type ackPoint struct {
	at    time.Duration
	acked float64
}

func (l *ackLog) Emit(ev obs.Event) {
	if ev.Type == obs.EvAck {
		*l = append(*l, ackPoint{ev.At, ev.V2})
	}
}

// runProfiled pushes a fixed transfer through a profile-wrapped link
// and returns the chain, the flow and its per-ack delivery sequence — a
// complete fingerprint of the run's observable behaviour.
func runProfiled(t *testing.T, profile string, seed int64) (*faults.Chain, *transport.Flow, ackLog) {
	t.Helper()
	p, err := faults.Lookup(profile)
	if err != nil {
		t.Fatal(err)
	}
	eng := &sim.Engine{}
	ch := p.Build(eng, qdisc.NewDropTail(1<<20), seed)
	link := sim.NewLink(eng, "l", 20e6, 10*time.Millisecond, ch.Qdisc())
	var acks ackLog
	f := transport.NewFlow(eng, transport.FlowConfig{
		ID: 1, Path: []*sim.Link{link}, ReturnDelay: 10 * time.Millisecond,
		CC: cca.NewCubicCC(), Trace: &acks,
	})
	f.Sender.Supply(2 << 20)
	eng.Run(90 * time.Second)
	return ch, f, acks
}

// TestProfileReplayIsExact: the same (profile, seed) pair must replay
// byte-for-byte — identical injector counters and an identical
// delivery time series, sample for sample.
func TestProfileReplayIsExact(t *testing.T) {
	for _, profile := range []string{"wifi-bursty", "flaky-cellular", "dsl-noise"} {
		profile := profile
		t.Run(profile, func(t *testing.T) {
			ch1, f1, s1 := runProfiled(t, profile, 42)
			ch2, f2, s2 := runProfiled(t, profile, 42)
			if injectedDrops(ch1) != injectedDrops(ch2) {
				t.Errorf("injected drops diverged: %d vs %d",
					injectedDrops(ch1), injectedDrops(ch2))
			}
			if f1.Sender.BytesAcked() != f2.Sender.BytesAcked() {
				t.Errorf("acked bytes diverged: %d vs %d",
					f1.Sender.BytesAcked(), f2.Sender.BytesAcked())
			}
			if len(s1) == 0 {
				t.Fatal("no acks recorded")
			}
			if len(s1) != len(s2) {
				t.Fatalf("delivery series length diverged: %d vs %d", len(s1), len(s2))
			}
			for i := range s1 {
				if s1[i] != s2[i] {
					t.Fatalf("delivery series diverged at sample %d: %+v vs %+v",
						i, s1[i], s2[i])
				}
			}
		})
	}
}

// TestProfileSeedMatters: different seeds must explore different fault
// patterns (otherwise the seeding is decorative).
func TestProfileSeedMatters(t *testing.T) {
	ch1, _, s1 := runProfiled(t, "wifi-bursty", 1)
	ch2, _, s2 := runProfiled(t, "wifi-bursty", 2)
	if injectedDrops(ch1) == injectedDrops(ch2) && len(s1) == len(s2) {
		t.Error("two seeds produced identical runs; RNG is not wired through")
	}
}

// injectedDrops totals the packets discarded by loss injectors and
// blackholed outages (inner-queue congestive drops are not included).
func injectedDrops(c *faults.Chain) int64 {
	var n int64
	if c.Loss != nil {
		n += c.Loss.Dropped
	}
	if c.GE != nil {
		n += c.GE.Dropped
	}
	if c.Outage != nil {
		n += c.Outage.Suppressed
	}
	return n
}
