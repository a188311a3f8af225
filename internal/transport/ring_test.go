package transport

import (
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/qdisc"
	"repro/internal/sim"
)

func TestAckBookkeepingIsBounded(t *testing.T) {
	// A count, not a clock: detectLosses steps past each ring slot once,
	// so slots visited per ack stay near one however wide the window.
	// The send-order slice the ring replaced was copied, all of it, on
	// nearly every ack — 400-800 seqs at Figure 3's 48 Mbit/s x 100 ms.
	for _, rate := range []float64{48e6, 2e6} {
		const owd = 50 * time.Millisecond
		eng := &sim.Engine{}
		link := sim.NewLink(eng, "l", rate, owd, qdisc.NewDropTailBDP(rate, 2*owd, 1))
		s := NewFlow(eng, FlowConfig{
			ID: 1, Path: []*sim.Link{link}, ReturnDelay: owd,
			CC: &miniReno{cwnd: 10 * sim.MSS, ssthresh: 1 << 30}, Backlogged: true,
		}).Sender
		eng.Run(10 * time.Second)
		acks := s.bytesAcked / sim.MSS
		t.Logf("%.0f Mbit/s: %d slots visited, %d acks, %d lost, ring of %d", rate/1e6, s.visited, acks, s.lostPackets, len(s.ring))
		if s.lostPackets == 0 {
			t.Errorf("%.0f Mbit/s: no packet declared lost; the walk was never exercised", rate/1e6)
		}
		if got := float64(s.visited) / float64(acks); got > 2 {
			t.Errorf("%.0f Mbit/s: %.2f slots visited per ack (%d / %d), want <= 2", rate/1e6, got, s.visited, acks)
		}
	}
}

func TestLateAckAfterTimeoutIsIgnored(t *testing.T) {
	// A timeout declares every outstanding packet lost and moves base
	// past them, so an ack for one of them that arrives afterwards is
	// out of range: it must not count as delivered, shrink inflight or
	// feed the RTT estimator — even though its ring slot now holds a
	// live retransmission.
	cc := &miniReno{cwnd: 16 * sim.MSS, ssthresh: 1 << 30}
	s, log := newBareSender(&sim.Engine{}, cc, FlowConfig{})
	s.Supply(16 * sim.MSS) // seqs 0-15 fill the 16-slot ring at t=0
	s.eng.Run(300 * time.Millisecond)
	ackSeq(s, 0) // one 300 ms RTT sample
	s.onRTO()    // seqs 1-15 lost
	cc.cwnd = 16 * sim.MSS
	s.trySend() // their retransmissions, seqs 16-30, take slots 0-14
	if s.base != 16 || s.nextSeq != 31 || len(s.ring) != 16 {
		t.Fatalf("after the timeout: base %d, next seq %d, %d slots; want 16, 31, 16", s.base, s.nextSeq, len(s.ring))
	}
	s.eng.Run(700 * time.Millisecond)

	type ledger struct {
		acked, largestAcked  int64
		inflight, acks       int
		srtt, rttvar, minRTT time.Duration
	}
	snap := func() ledger {
		acks := 0
		for _, ev := range log.evs {
			if ev.Type == obs.EvAck {
				acks++
			}
		}
		return ledger{s.bytesAcked, s.largestAcked, s.inflightBytes, acks, s.rtt.SRTT, s.rtt.rttvar, s.rtt.Min}
	}
	before := snap()
	for seq := int64(1); seq < 16; seq++ {
		ackSeq(s, seq)
	}
	if after := snap(); after != before {
		t.Errorf("late acks moved the sender: %+v, want %+v", after, before)
	}
}
