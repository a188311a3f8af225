package transport_test

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/cca"
	"repro/internal/faults"
	"repro/internal/qdisc"
	"repro/internal/sim"
	"repro/internal/transport"
)

// TestDeliveryUnderRandomLoss checks the transport delivers everything
// through a 2% random-loss link.
func TestDeliveryUnderRandomLoss(t *testing.T) {
	eng := &sim.Engine{}
	q := faults.NewLoss(qdisc.NewDropTail(1<<20), 0.02, rand.New(rand.NewSource(42)))
	link := sim.NewLink(eng, "l", 20e6, 10*time.Millisecond, q)
	done := false
	f := transport.NewFlow(eng, transport.FlowConfig{
		ID: 1, Path: []*sim.Link{link}, ReturnDelay: 10 * time.Millisecond,
		CC: cca.NewCubicCC(),
	})
	f.Sender.OnComplete = func(time.Duration) { done = true }
	const total = 4 << 20
	f.Sender.Supply(total)
	eng.Run(2 * time.Minute)
	if !done {
		t.Fatalf("incomplete: acked %d of %d (link drops %d)",
			f.Sender.BytesAcked(), total, q.Dropped)
	}
	if q.Dropped == 0 {
		t.Fatal("loss injection did not fire")
	}
	if f.Sender.BytesAcked() != total {
		t.Errorf("acked %d, want %d", f.Sender.BytesAcked(), total)
	}
}

// TestMildReorderingDoesNotStall verifies that reordering within the
// loss threshold neither stalls the flow nor spuriously retransmits
// much.
func TestMildReorderingDoesNotStall(t *testing.T) {
	eng := &sim.Engine{}
	// 1 ms behind at 0.6 ms per packet: a held packet re-emerges one or
	// two places late.
	q := faults.NewReorderer(qdisc.NewDropTail(1<<20), 0.3, time.Millisecond, rand.New(rand.NewSource(3)))
	link := sim.NewLink(eng, "l", 20e6, 10*time.Millisecond, q)
	done := false
	f := transport.NewFlow(eng, transport.FlowConfig{
		ID: 1, Path: []*sim.Link{link}, ReturnDelay: 10 * time.Millisecond,
		CC: cca.NewCubicCC(),
	})
	f.Sender.OnComplete = func(time.Duration) { done = true }
	const total = 1 << 20
	f.Sender.Supply(total)
	eng.Run(time.Minute)
	if !done {
		t.Fatalf("incomplete under reordering: acked %d", f.Sender.BytesAcked())
	}
	snap := f.Sender.Snapshot()
	// Displacements of a packet or two stay under the 3-packet
	// threshold: no spurious loss recovery.
	if snap.BytesRetrans > total/20 {
		t.Errorf("excessive retransmission under mild reordering: %d", snap.BytesRetrans)
	}
}

// TestHeavyReorderingStillCompletes: reordering beyond the threshold
// causes spurious retransmissions but must not wedge the connection.
func TestHeavyReorderingStillCompletes(t *testing.T) {
	eng := &sim.Engine{}
	// 6 ms behind: a held packet re-emerges some ten places late.
	q := faults.NewReorderer(qdisc.NewDropTail(1<<20), 0.3, 6*time.Millisecond, rand.New(rand.NewSource(3)))
	link := sim.NewLink(eng, "l", 20e6, 10*time.Millisecond, q)
	done := false
	f := transport.NewFlow(eng, transport.FlowConfig{
		ID: 1, Path: []*sim.Link{link}, ReturnDelay: 10 * time.Millisecond,
		CC: cca.NewCubicCC(),
	})
	f.Sender.OnComplete = func(time.Duration) { done = true }
	f.Sender.Supply(1 << 20)
	eng.Run(2 * time.Minute)
	if !done {
		t.Fatalf("wedged under heavy reordering: acked %d inflight %d",
			f.Sender.BytesAcked(), f.Sender.Inflight())
	}
}

// TestManyFlowsSharedLinkConservation is a stress/conservation test:
// many concurrent flows with random sizes on a small buffer; every
// flow must finish and the sum of receiver bytes must equal the sum of
// supplied bytes.
func TestManyFlowsSharedLinkConservation(t *testing.T) {
	eng := &sim.Engine{}
	link := sim.NewLink(eng, "l", 50e6, 5*time.Millisecond, qdisc.NewDropTail(32*sim.MSS))
	rng := rand.New(rand.NewSource(11))
	type rec struct {
		f    *transport.Flow
		size int64
		done bool
	}
	var flows []*rec
	for i := 0; i < 40; i++ {
		r := &rec{size: int64(1000 + rng.Intn(500_000))}
		f := transport.NewFlow(eng, transport.FlowConfig{
			ID: i + 1, Path: []*sim.Link{link}, ReturnDelay: 5 * time.Millisecond,
			CC: cca.NewRenoCC(),
		})
		f.Sender.OnComplete = func(time.Duration) { r.done = true }
		r.f = f
		flows = append(flows, r)
		start := time.Duration(rng.Intn(2000)) * time.Millisecond
		sz := r.size
		eng.ScheduleAt(start, func() { f.Sender.Supply(sz) })
	}
	eng.Run(3 * time.Minute)
	for i, r := range flows {
		if !r.done {
			t.Errorf("flow %d incomplete: acked %d of %d", i+1, r.f.Sender.BytesAcked(), r.size)
			continue
		}
		if r.f.Sender.BytesAcked() != r.size {
			t.Errorf("flow %d acked %d, want %d", i+1, r.f.Sender.BytesAcked(), r.size)
		}
	}
}
