package transport_test

import (
	"testing"
	"time"

	"repro/internal/cca"
	"repro/internal/qdisc"
	"repro/internal/sim"
	"repro/internal/transport"
)

// TestRearmKeepsQueueFlat runs one saturating 48 Mbit/s, 100 ms flow
// for 10 virtual seconds and bounds the engine's queue, at every step,
// by the flow's packets in flight outside the qdisc plus a few timers.
// Every send and ack re-arms the retransmission timer, and every ack
// the pacing gate holds back re-arms the pacing timer. Re-arming by
// cancel and reschedule leaves a dead event queued for a whole timeout
// per re-arm: some 1,900 beyond the packets in flight here.
func TestRearmKeepsQueueFlat(t *testing.T) {
	for _, tc := range []struct {
		name string
		cc   transport.CCA
	}{
		{"cubic", cca.NewCubicCC()}, // window-limited: the RTO timer
		{"bbr", cca.NewBBRCC()},     // paced: the RTO and pacing timers
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng := &sim.Engine{}
			const rate = 48e6
			link := sim.NewLink(eng, "l", rate, 50*time.Millisecond, qdisc.NewDropTailBDP(rate, 100*time.Millisecond, 1))
			f := transport.NewFlow(eng, transport.FlowConfig{
				ID: 1, Path: []*sim.Link{link}, ReturnDelay: 50 * time.Millisecond,
				CC: tc.cc, Backlogged: true,
			})
			f.Start()
			// Every packet in flight and outside the queue is one event
			// (serializing, propagating, or its ack returning); the rest
			// are the flow's timers.
			excess, peak := 0, 0
			for eng.Now() < 10*time.Second && eng.Step() {
				pipe := (f.Sender.Inflight()+sim.MSS-1)/sim.MSS - link.Q.Len()
				excess = max(excess, eng.Pending()-pipe)
				peak = max(peak, eng.Pending())
			}
			t.Logf("queue peak %d events; at most %d beyond the packets in flight outside the qdisc", peak, excess)
			// The retransmission and pacing timers, and the few
			// cancelled copies left where a shrinking RTO made Postpone
			// refuse (a handful in 10 s).
			const timers = 8
			if excess > timers {
				t.Fatalf("queue held %d events beyond the packets in flight outside the qdisc, want at most %d", excess, timers)
			}
			if f.Sender.BytesAcked() < int64(0.8*rate/8*9) {
				t.Fatalf("flow acked %d bytes in 10s, not saturating", f.Sender.BytesAcked())
			}
		})
	}
}
