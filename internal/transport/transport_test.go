package transport_test

import (
	"testing"
	"time"

	"repro/internal/cca"
	"repro/internal/qdisc"
	"repro/internal/sim"
	"repro/internal/transport"
)

// dumbbell wires one flow over a fresh engine + link.
func dumbbell(rate float64, owd time.Duration, q sim.Qdisc) (*sim.Engine, *sim.Link) {
	eng := &sim.Engine{}
	if q == nil {
		q = qdisc.NewDropTailBDP(rate, 2*owd, 1)
	}
	return eng, sim.NewLink(eng, "l", rate, owd, q)
}

func TestShortFlowCompletes(t *testing.T) {
	eng, link := dumbbell(10e6, 10*time.Millisecond, nil)
	var completedAt time.Duration
	f := transport.NewFlow(eng, transport.FlowConfig{
		ID: 1, Path: []*sim.Link{link}, ReturnDelay: 10 * time.Millisecond,
		CC: cca.NewRenoCC(),
	})
	f.Sender.OnComplete = func(now time.Duration) { completedAt = now }
	f.Sender.Supply(10 * 1500) // 10 packets: fits the initial window
	eng.Run(5 * time.Second)

	if completedAt == 0 {
		t.Fatal("flow did not complete")
	}
	// 10 packets of 1500B at 10 Mbit/s: 1.2ms each serialized,
	// completing within ~2 RTTs.
	if completedAt > 100*time.Millisecond {
		t.Errorf("completed at %v, expected within ~2 RTT", completedAt)
	}
	if f.Sender.BytesAcked() != 10*1500 {
		t.Errorf("acked %d bytes", f.Sender.BytesAcked())
	}
}

func TestPartialFinalSegment(t *testing.T) {
	eng, link := dumbbell(10e6, 5*time.Millisecond, nil)
	done := false
	f := transport.NewFlow(eng, transport.FlowConfig{
		ID: 1, Path: []*sim.Link{link}, ReturnDelay: 5 * time.Millisecond,
		CC: cca.NewRenoCC(),
	})
	f.Sender.OnComplete = func(time.Duration) { done = true }
	f.Sender.Supply(1500 + 700) // one full + one partial segment
	eng.Run(time.Second)
	if !done {
		t.Fatal("flow did not complete")
	}
	if got := f.Sender.BytesAcked(); got != 2200 {
		t.Errorf("acked %d, want 2200", got)
	}
}

func TestAppLimitedAccounting(t *testing.T) {
	eng, link := dumbbell(10e6, 10*time.Millisecond, nil)
	f := transport.NewFlow(eng, transport.FlowConfig{
		ID: 1, Path: []*sim.Link{link}, ReturnDelay: 10 * time.Millisecond,
		CC: cca.NewRenoCC(),
	})
	// Supply a small chunk, then go idle for a long time.
	f.Sender.Supply(3000)
	eng.Run(10 * time.Second)
	snap := f.Sender.Snapshot()
	if snap.AppLimited < 9*time.Second {
		t.Errorf("AppLimited = %v, want ~10s of idle", snap.AppLimited)
	}
	if snap.AppLimitedFraction() < 0.9 {
		t.Errorf("fraction = %v", snap.AppLimitedFraction())
	}
}

func TestBackloggedIsNeverAppLimited(t *testing.T) {
	eng, link := dumbbell(10e6, 10*time.Millisecond, nil)
	f := transport.NewFlow(eng, transport.FlowConfig{
		ID: 1, Path: []*sim.Link{link}, ReturnDelay: 10 * time.Millisecond,
		CC: cca.NewRenoCC(), Backlogged: true,
	})
	f.Start()
	eng.Run(5 * time.Second)
	snap := f.Sender.Snapshot()
	if snap.AppLimited != 0 {
		t.Errorf("AppLimited = %v, want 0 for a backlogged flow", snap.AppLimited)
	}
	if snap.BusyTime < 4*time.Second {
		t.Errorf("BusyTime = %v", snap.BusyTime)
	}
}

func TestRetransmissionDeliversEverything(t *testing.T) {
	// Tiny buffer forces drops; the flow must still deliver every byte.
	eng, link := dumbbell(10e6, 10*time.Millisecond, qdisc.NewDropTail(4*1500))
	done := false
	f := transport.NewFlow(eng, transport.FlowConfig{
		ID: 1, Path: []*sim.Link{link}, ReturnDelay: 10 * time.Millisecond,
		CC: cca.NewRenoCC(),
	})
	f.Sender.OnComplete = func(time.Duration) { done = true }
	const total = 2 << 20 // 2 MiB
	f.Sender.Supply(total)
	eng.Run(60 * time.Second)
	if !done {
		t.Fatalf("flow incomplete: acked %d of %d, inflight %d",
			f.Sender.BytesAcked(), total, f.Sender.Inflight())
	}
	if f.Sender.BytesAcked() != total {
		t.Errorf("acked %d, want %d", f.Sender.BytesAcked(), total)
	}
	if f.Sender.LossEvents() == 0 {
		t.Error("expected losses on the tiny buffer")
	}
	snap := f.Sender.Snapshot()
	if snap.BytesRetrans == 0 {
		t.Error("expected retransmissions")
	}
	if snap.BytesSent < snap.BytesAcked {
		t.Error("sent must be >= acked")
	}
}

func TestRTTEstimation(t *testing.T) {
	eng, link := dumbbell(100e6, 25*time.Millisecond, nil)
	f := transport.NewFlow(eng, transport.FlowConfig{
		ID: 1, Path: []*sim.Link{link}, ReturnDelay: 25 * time.Millisecond,
		CC: cca.NewRenoCC(),
	})
	f.Sender.Supply(15000)
	eng.Run(time.Second)
	// Base RTT = 50ms + serialization (~0.12ms per packet at 100 Mbit/s).
	min := f.Sender.Snapshot().MinRTT
	if min < 50*time.Millisecond || min > 55*time.Millisecond {
		t.Errorf("MinRTT = %v, want ~50ms", min)
	}
	if f.Sender.Snapshot().SRTT < min {
		t.Errorf("SRTT %v < MinRTT %v", f.Sender.Snapshot().SRTT, min)
	}
}

func TestPacedCBRRate(t *testing.T) {
	eng, link := dumbbell(100e6, 5*time.Millisecond, nil)
	f := transport.NewFlow(eng, transport.FlowConfig{
		ID: 1, Path: []*sim.Link{link}, ReturnDelay: 5 * time.Millisecond,
		CC: cca.NewCBR(10e6), Backlogged: true,
	})
	f.Watch(time.Second, 10*time.Second)
	f.Start()
	eng.Run(10 * time.Second)
	got := f.Throughput(time.Second, 10*time.Second)
	if got < 9.5e6 || got > 10.5e6 {
		t.Errorf("CBR throughput = %.2f Mbit/s, want ~10", got/1e6)
	}
}

func TestRTOFiresOnTotalLoss(t *testing.T) {
	// A link whose queue rejects everything after the first packets:
	// the RTO must fire and eventually deliver via retransmission once
	// the blackhole lifts.
	eng := &sim.Engine{}
	q := &gateQueue{inner: qdisc.NewDropTail(1 << 20)}
	link := sim.NewLink(eng, "l", 10e6, 10*time.Millisecond, q)
	done := false
	f := transport.NewFlow(eng, transport.FlowConfig{
		ID: 1, Path: []*sim.Link{link}, ReturnDelay: 10 * time.Millisecond,
		CC: cca.NewRenoCC(),
	})
	f.Sender.OnComplete = func(time.Duration) { done = true }
	q.blocked = true
	f.Sender.Supply(3000)
	// Unblock after 2 seconds.
	eng.Schedule(2*time.Second, func() { q.blocked = false })
	eng.Run(30 * time.Second)
	if !done {
		t.Fatal("flow never recovered from blackhole")
	}
	if f.Sender.LossEvents() == 0 {
		t.Error("expected RTO loss events")
	}
}

// gateQueue drops everything while blocked.
type gateQueue struct {
	inner   *qdisc.DropTail
	blocked bool
}

func (g *gateQueue) Enqueue(p *sim.Packet, now time.Duration) bool {
	if g.blocked {
		return false
	}
	return g.inner.Enqueue(p, now)
}
func (g *gateQueue) Dequeue(now time.Duration) (*sim.Packet, time.Duration) {
	return g.inner.Dequeue(now)
}
func (g *gateQueue) Len() int   { return g.inner.Len() }
func (g *gateQueue) Bytes() int { return g.inner.Bytes() }

func TestTwoRenoFlowsShareFairly(t *testing.T) {
	eng, link := dumbbell(20e6, 20*time.Millisecond, nil)
	var flows []*transport.Flow
	for i := 1; i <= 2; i++ {
		f := transport.NewFlow(eng, transport.FlowConfig{
			ID: i, Path: []*sim.Link{link}, ReturnDelay: 20 * time.Millisecond,
			CC: cca.NewRenoCC(), Backlogged: true,
		})
		f.Watch(20*time.Second, 60*time.Second)
		f.Start()
		flows = append(flows, f)
	}
	eng.Run(60 * time.Second)
	t1 := flows[0].Throughput(20*time.Second, 60*time.Second)
	t2 := flows[1].Throughput(20*time.Second, 60*time.Second)
	sum := t1 + t2
	if sum < 17e6 {
		t.Errorf("utilization too low: %.2f Mbit/s", sum/1e6)
	}
	share := t1 / sum
	if share < 0.35 || share > 0.65 {
		t.Errorf("reno/reno share = %.3f, want near 0.5", share)
	}
}

func TestOnCompleteCancelsRTO(t *testing.T) {
	eng, link := dumbbell(10e6, 5*time.Millisecond, nil)
	f := transport.NewFlow(eng, transport.FlowConfig{
		ID: 1, Path: []*sim.Link{link}, ReturnDelay: 5 * time.Millisecond,
		CC: cca.NewRenoCC(),
	})
	completions := 0
	f.Sender.OnComplete = func(time.Duration) { completions++ }
	f.Sender.Supply(1500)
	eng.Run(10 * time.Second)
	if completions != 1 {
		t.Errorf("completions = %d, want exactly 1", completions)
	}
	if f.Sender.LossEvents() != 0 {
		t.Errorf("spurious loss events after completion: %d", f.Sender.LossEvents())
	}
}

func TestNilCCPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for nil CC")
		}
	}()
	eng := &sim.Engine{}
	transport.NewFlow(eng, transport.FlowConfig{ID: 1})
}

// ackLog records, through the engine's validation hook, every packet as
// its terminal consumer releases it: data at the receiver, acks at the
// sender.
type ackLog struct {
	eng        *sim.Engine
	data, acks []sim.Packet
	ackAt      []time.Duration
}

func (*ackLog) OnSchedule(time.Duration, int64) {}
func (*ackLog) OnFire(time.Duration, int64)     {}
func (*ackLog) OnAlloc(*sim.Packet)             {}
func (l *ackLog) OnFree(p *sim.Packet) {
	if p.Ack {
		l.acks = append(l.acks, *p)
		l.ackAt = append(l.ackAt, l.eng.Now())
	} else {
		l.data = append(l.data, *p)
	}
}

// TestAckEchoesDataPacket pins the receiver's hot path: every data
// packet is answered by one 40-byte ack that echoes its flow, user and
// sequence, is stamped with the data packet's arrival time, and reaches
// the sender exactly ReturnDelay later.
func TestAckEchoesDataPacket(t *testing.T) {
	const owd = 10 * time.Millisecond
	eng, link := dumbbell(12e6, owd, nil) // 1500 B serialize in 1 ms
	log := &ackLog{eng: eng}
	eng.SetHook(log)
	f := transport.NewFlow(eng, transport.FlowConfig{
		ID: 7, UserID: 3, Path: []*sim.Link{link}, ReturnDelay: owd, CC: cca.NewRenoCC(),
	})
	f.Sender.Supply(3*sim.MSS + 100)
	eng.Run(time.Second)

	if len(log.data) != 4 || len(log.acks) != 4 {
		t.Fatalf("released %d data packets and %d acks, want 4 and 4", len(log.data), len(log.acks))
	}
	for i, ack := range log.acks {
		arrived := time.Duration(i+1)*time.Millisecond + owd
		if i == 3 {
			arrived = 3*time.Millisecond + 100*8*time.Second/12e6 + owd
		}
		type echo struct {
			flow, user int
			seq        int64
			size       int
			sentAt     time.Duration
		}
		want := echo{7, 3, int64(i), 40, arrived}
		if got := (echo{ack.FlowID, ack.UserID, ack.Seq, ack.Size, ack.SentAt}); got != want {
			t.Errorf("ack %d = %+v, want %+v", i, got, want)
		}
		if d := log.data[i]; d.FlowID != 7 || d.UserID != 3 || d.Seq != int64(i) {
			t.Errorf("data %d = flow %d user %d seq %d", i, d.FlowID, d.UserID, d.Seq)
		}
		if log.ackAt[i] != arrived+owd {
			t.Errorf("ack %d reached the sender at %v, want %v", i, log.ackAt[i], arrived+owd)
		}
	}
}
