package check_test

import (
	"strings"
	"testing"
	"time"

	"repro/internal/cca"
	"repro/internal/faults"
	"repro/internal/qdisc"
	"repro/internal/sim"
	"repro/internal/sim/check"
	"repro/internal/transport"
)

// poolCount is the engine's hook in runCheckedDuel: it passes every
// transition on to the checker and counts packets handed out, the
// distinct packets among them, and releases.
type poolCount struct {
	*check.Checker
	allocs, frees int64
	seen          map[*sim.Packet]bool
}

func (h *poolCount) OnAlloc(p *sim.Packet) {
	h.allocs++
	h.seen[p] = true
	h.Checker.OnAlloc(p)
}

func (h *poolCount) OnFree(p *sim.Packet) {
	h.frees++
	h.Checker.OnFree(p)
}

// runCheckedDuel runs a two-flow contention scenario with the invariant
// checker attached and returns the checker and the pool counts for
// inspection.
func runCheckedDuel(t *testing.T, wrap func(sim.Qdisc) sim.Qdisc) (*check.Checker, *poolCount) {
	t.Helper()
	eng := &sim.Engine{}
	ck := check.Attach(eng)
	pc := &poolCount{Checker: ck, seen: map[*sim.Packet]bool{}}
	eng.SetHook(pc)

	// The bound is the FIFO's own limit: the packets a fault chain's
	// delay and duplication stages hold are not the discipline's.
	const capBytes = 64 * sim.MSS
	fifo := qdisc.NewDropTail(capBytes)
	var q sim.Qdisc = fifo
	if wrap != nil {
		q = wrap(q)
	}
	link := sim.NewLink(eng, "bottleneck", 8e6, 10*time.Millisecond, q)
	ck.WatchLink(link, fifo, capBytes)

	for i, name := range []string{"cubic", "bbr"} {
		cc, err := cca.New(name)
		if err != nil {
			t.Fatalf("cca.New(%s): %v", name, err)
		}
		f := transport.NewFlow(eng, transport.FlowConfig{
			ID:          i + 1,
			Path:        []*sim.Link{link},
			ReturnDelay: 10 * time.Millisecond,
			CC:          cc,
			Backlogged:  true,
		})
		f.Start()
	}
	eng.Run(3 * time.Second)
	ck.VerifyLinks()
	return ck, pc
}

// TestCheckedContentionRun drives a real two-CCA contention scenario
// through a droptail FIFO with every invariant check armed: monotone clock,
// FIFO order, pool hygiene, link conservation, occupancy bounds.
func TestCheckedContentionRun(t *testing.T) {
	ck, pc := runCheckedDuel(t, nil)
	if err := ck.Err(); err != nil {
		t.Fatalf("invariant violations:\n%v", err)
	}
	allocs, frees := int64(len(pc.seen)), pc.frees
	reuses := pc.allocs - allocs
	if allocs == 0 || frees == 0 {
		t.Fatalf("pool never exercised: allocs=%d frees=%d", allocs, frees)
	}
	if reuses < allocs {
		t.Errorf("steady state should recycle more packets than it allocates: allocs=%d reuses=%d", allocs, reuses)
	}
	if now, max := ck.LivePackets(); now > max || max == 0 {
		t.Errorf("live packet accounting broken: now=%d max=%d", now, max)
	}
}

// TestCheckedRunWithFaults layers the wifi-bursty fault chain (burst
// loss, jitter, duplication) over the qdisc: enqueue refusals, cloned
// duplicates, and reordering must all preserve pool hygiene and link
// conservation.
func TestCheckedRunWithFaults(t *testing.T) {
	ck, _ := runCheckedDuel(t, func(q sim.Qdisc) sim.Qdisc {
		prof, err := faults.Lookup("wifi-bursty")
		if err != nil {
			t.Fatalf("profile: %v", err)
		}
		return prof.Build(new(sim.Engine), q, 7).Qdisc()
	})
	if err := ck.Err(); err != nil {
		t.Fatalf("invariant violations under faults:\n%v", err)
	}
}

// TestCheckerDetectsClockRegression feeds the checker an event stream
// whose clock runs backwards and expects a violation.
func TestCheckerDetectsClockRegression(t *testing.T) {
	eng := &sim.Engine{}
	ck := check.Attach(eng)
	ck.OnFire(2*time.Second, 1)
	ck.OnFire(1*time.Second, 2)
	err := ck.Err()
	if err == nil || !strings.Contains(err.Error(), "clock ran backwards") {
		t.Fatalf("expected clock violation, got %v", err)
	}
}

// TestCheckerDetectsFIFOViolation feeds two same-time events in
// reversed schedule order.
func TestCheckerDetectsFIFOViolation(t *testing.T) {
	eng := &sim.Engine{}
	ck := check.Attach(eng)
	ck.OnFire(time.Second, 5)
	ck.OnFire(time.Second, 4)
	err := ck.Err()
	if err == nil || !strings.Contains(err.Error(), "FIFO tie-break") {
		t.Fatalf("expected FIFO violation, got %v", err)
	}
}

// TestCheckerDetectsForeignFree releases a packet the checker never saw
// allocated.
func TestCheckerDetectsForeignFree(t *testing.T) {
	eng := &sim.Engine{}
	p := eng.NewPacket() // allocated before the checker attached
	ck := check.Attach(eng)
	p.Release()
	err := ck.Err()
	if err == nil || !strings.Contains(err.Error(), "released while not live") {
		t.Fatalf("expected foreign-free violation, got %v", err)
	}
}

// TestCheckerDetectsDoubleAlloc hands out a packet the checker still
// holds live: its release happened with the hook off, so the next
// NewPacket recycles it behind the checker's back.
func TestCheckerDetectsDoubleAlloc(t *testing.T) {
	eng := &sim.Engine{}
	ck := check.Attach(eng)
	p := eng.NewPacket()
	eng.SetHook(nil)
	p.Release()
	eng.SetHook(ck)
	if q := eng.NewPacket(); q != p {
		t.Fatalf("the free list did not recycle the released packet")
	}
	err := ck.Err()
	if err == nil || !strings.Contains(err.Error(), "handed out twice") {
		t.Fatalf("expected double-alloc violation, got %v", err)
	}
}

// TestCheckerDetectsRecycledFree releases a packet under a generation
// other than the one the checker saw it allocated with: with the hook
// off it was released and handed out again, as a stale reference to a
// recycled packet would see it.
func TestCheckerDetectsRecycledFree(t *testing.T) {
	eng := &sim.Engine{}
	ck := check.Attach(eng)
	p := eng.NewPacket()
	eng.SetHook(nil)
	p.Release()
	if q := eng.NewPacket(); q != p {
		t.Fatalf("the free list did not recycle the released packet")
	}
	eng.SetHook(ck)
	p.Release()
	err := ck.Err()
	if err == nil || !strings.Contains(err.Error(), "use-after-free of a recycled packet") {
		t.Fatalf("expected generation-mismatch violation, got %v", err)
	}
}

// TestCheckerDetectsConservationViolation watches a link whose qdisc
// loses a packet without accounting for it.
func TestCheckerDetectsConservationViolation(t *testing.T) {
	eng := &sim.Engine{}
	ck := check.Attach(eng)
	q := &leakyQueue{inner: qdisc.NewDropTail(1 << 20)}
	link := sim.NewLink(eng, "leaky", 8e6, time.Millisecond, q)
	ck.WatchLink(link, q, 0)
	for i := 0; i < 8; i++ {
		link.Send(&sim.Packet{Seq: int64(i), Size: sim.MSS})
	}
	eng.Run(time.Second)
	ck.VerifyLinks()
	err := ck.Err()
	if err == nil || !strings.Contains(err.Error(), "conservation violated") {
		t.Fatalf("expected conservation violation, got %v", err)
	}
}

// leakyQueue accepts packets but silently discards every other one at
// dequeue without reporting it — the bug class the conservation check
// exists to catch.
type leakyQueue struct {
	inner *qdisc.DropTail
	n     int
}

func (l *leakyQueue) Enqueue(p *sim.Packet, now time.Duration) bool {
	return l.inner.Enqueue(p, now)
}

func (l *leakyQueue) Dequeue(now time.Duration) (*sim.Packet, time.Duration) {
	for {
		p, ready := l.inner.Dequeue(now)
		if p == nil {
			return nil, ready
		}
		l.n++
		if l.n%2 == 0 {
			continue // vanish without a trace
		}
		return p, ready
	}
}

func (l *leakyQueue) Len() int   { return l.inner.Len() }
func (l *leakyQueue) Bytes() int { return l.inner.Bytes() }
