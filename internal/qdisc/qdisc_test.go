package qdisc

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/sim"
)

func pkt(flow, user, size int) *sim.Packet {
	return &sim.Packet{FlowID: flow, UserID: user, Size: size}
}

func TestDropTailFIFOOrder(t *testing.T) {
	q := NewDropTail(10000)
	for i := 0; i < 5; i++ {
		p := pkt(1, 1, 100)
		p.Seq = int64(i)
		if !q.Enqueue(p, 0) {
			t.Fatalf("enqueue %d refused", i)
		}
	}
	if q.Len() != 5 || q.Bytes() != 500 {
		t.Fatalf("len/bytes = %d/%d", q.Len(), q.Bytes())
	}
	for i := 0; i < 5; i++ {
		p, ready := q.Dequeue(0)
		if p == nil || ready != 0 {
			t.Fatalf("dequeue %d: %v %v", i, p, ready)
		}
		if p.Seq != int64(i) {
			t.Fatalf("out of order: got %d want %d", p.Seq, i)
		}
	}
	if p, _ := q.Dequeue(0); p != nil {
		t.Error("empty dequeue should return nil")
	}
}

func TestDropTailLimit(t *testing.T) {
	q := NewDropTail(250)
	if !q.Enqueue(pkt(1, 1, 100), 0) || !q.Enqueue(pkt(1, 1, 100), 0) {
		t.Fatal("first two should fit")
	}
	if q.Enqueue(pkt(1, 1, 100), 0) {
		t.Error("third packet should overflow")
	}
	if q.Dropped != 1 {
		t.Errorf("Dropped = %d", q.Dropped)
	}
	// Unbounded default for non-positive limits.
	u := NewDropTail(0)
	if u.Limit() <= 0 {
		t.Error("non-positive limit should become effectively unbounded")
	}
}

func TestDropTailBDPSizing(t *testing.T) {
	q := NewDropTailBDP(48e6, 100*time.Millisecond, 1)
	want := int(48e6 / 8 * 0.1)
	if q.Limit() != want {
		t.Errorf("limit = %d, want %d", q.Limit(), want)
	}
	// Tiny BDPs get a floor.
	q = NewDropTailBDP(1e3, time.Millisecond, 1)
	if q.Limit() < 2*sim.MSS {
		t.Errorf("limit = %d below floor", q.Limit())
	}
}

func TestShaperDelaysExcess(t *testing.T) {
	// 8 Mbit/s shaper = 1ms per 1000-byte packet; burst of 1 packet.
	s := newTokenBucketShaper(8e6, 1000, 1<<20)
	now := time.Duration(0)
	for i := 0; i < 3; i++ {
		if !s.Enqueue(pkt(1, 1, 1000), now) {
			t.Fatalf("enqueue %d refused", i)
		}
	}
	// First packet conforms (full bucket).
	p, _ := s.Dequeue(now)
	if p == nil {
		t.Fatal("first packet should conform")
	}
	// Second must wait ~1ms.
	p, ready := s.Dequeue(now)
	if p != nil {
		t.Fatal("second packet should be held")
	}
	if ready <= now || ready > now+2*time.Millisecond {
		t.Errorf("ready = %v, want ~1ms", ready)
	}
	// At the ready time it conforms.
	p, _ = s.Dequeue(ready)
	if p == nil {
		t.Error("packet should conform at ready time")
	}
}

func TestShaperAchievesConfiguredRate(t *testing.T) {
	s := newTokenBucketShaper(8e6, 2000, 1<<20)
	now := time.Duration(0)
	sent := 0
	for i := 0; i < 2000; i++ {
		s.Enqueue(pkt(1, 1, 1000), now)
	}
	for now < time.Second {
		p, ready := s.Dequeue(now)
		if p != nil {
			sent++
			continue
		}
		if ready == 0 {
			break
		}
		now = ready
	}
	// 8 Mbit/s = 1000 packets/s of 1000B (+ burst allowance).
	if sent < 990 || sent > 1020 {
		t.Errorf("sent %d packets in 1s, want ~1000", sent)
	}
}

func TestPolicerDropsExcess(t *testing.T) {
	// 8 Mbit/s policer, burst 2000B.
	p := newTokenBucketPolicer(8e6, 2000)
	now := time.Duration(0)
	// Burst: first two conform, then drops.
	accepted := 0
	for i := 0; i < 10; i++ {
		if p.Enqueue(pkt(1, 1, 1000), now) {
			accepted++
		}
	}
	if accepted != 2 {
		t.Errorf("accepted %d, want 2 (burst)", accepted)
	}
	if p.Policed != 8 {
		t.Errorf("Policed = %d", p.Policed)
	}
	// After time passes, tokens accrue.
	if !p.Enqueue(pkt(1, 1, 1000), now+2*time.Millisecond) {
		t.Error("conforming packet after refill should pass")
	}
	// Dequeue passes through the FIFO.
	got := 0
	for {
		q, _ := p.Dequeue(now + time.Second)
		if q == nil {
			break
		}
		got++
	}
	if got != 3 {
		t.Errorf("dequeued %d, want 3", got)
	}
}

func TestDRRFairnessBetweenBackloggedFlows(t *testing.T) {
	d := NewDRR(ByFlow, sim.MSS, 1<<20)
	// Flow 1 offers twice the packets of flow 2, same sizes.
	for i := 0; i < 200; i++ {
		d.Enqueue(pkt(1, 1, 1000), 0)
		if i%2 == 0 {
			d.Enqueue(pkt(2, 2, 1000), 0)
		}
	}
	served := map[int]int{}
	// Serve 150 packets; both flows backlogged throughout (flow 2 has
	// 100 queued), so service should split evenly.
	for i := 0; i < 150; i++ {
		p, _ := d.Dequeue(0)
		if p == nil {
			t.Fatal("queue unexpectedly empty")
		}
		served[p.FlowID]++
	}
	if served[1] != 75 || served[2] != 75 {
		t.Errorf("service split = %v, want 75/75", served)
	}
}

func TestDRRByteFairnessWithUnequalPacketSizes(t *testing.T) {
	d := NewDRR(ByFlow, sim.MSS, 1<<22)
	// Flow 1 sends 1500B packets, flow 2 sends 500B packets.
	for i := 0; i < 300; i++ {
		d.Enqueue(pkt(1, 1, 1500), 0)
		d.Enqueue(pkt(2, 2, 500), 0)
		d.Enqueue(pkt(2, 2, 500), 0)
		d.Enqueue(pkt(2, 2, 500), 0)
	}
	bytes := map[int]int{}
	totalServed := 0
	for totalServed < 300*1500 {
		p, _ := d.Dequeue(0)
		if p == nil {
			break
		}
		bytes[p.FlowID] += p.Size
		totalServed += p.Size
	}
	// DRR is byte-fair: each flow gets ~half the bytes.
	ratio := float64(bytes[1]) / float64(bytes[1]+bytes[2])
	if ratio < 0.45 || ratio > 0.55 {
		t.Errorf("byte share = %.3f (%v), want ~0.5", ratio, bytes)
	}
}

func TestDRRIsolatesLowRateFlow(t *testing.T) {
	// A heavy flow fills the queue; a light flow's occasional packet
	// must still be served promptly (drop-from-longest protects it).
	d := NewDRR(ByFlow, sim.MSS, 20*1500)
	for i := 0; i < 100; i++ {
		d.Enqueue(pkt(1, 1, 1500), 0)
	}
	if !d.Enqueue(pkt(2, 2, 1500), 0) {
		t.Fatal("light flow's packet was dropped at enqueue")
	}
	// The light packet should be served within the first two rounds.
	seen := false
	for i := 0; i < 3; i++ {
		p, _ := d.Dequeue(0)
		if p != nil && p.FlowID == 2 {
			seen = true
			break
		}
	}
	if !seen {
		t.Error("light flow not served within two dequeues")
	}
}

func TestDRRConservation(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := NewDRR(ByFlow, sim.MSS, 50*1500)
		enq, drop := 0, 0
		for i := 0; i < 300; i++ {
			p := pkt(rng.Intn(5), 0, 200+rng.Intn(1300))
			if d.Enqueue(p, 0) {
				enq++
			}
		}
		drop = int(d.Dropped)
		deq := 0
		for {
			p, _ := d.Dequeue(0)
			if p == nil {
				break
			}
			deq++
		}
		// Note: Dropped counts both enqueue-refusals and head drops of
		// the longest class, so enqueued-accepted = dequeued exactly
		// when no head drops happened; in general enq + drop >= 300
		// and deq <= enq.
		return deq+drop >= 300 && d.Len() == 0 && d.Bytes() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestFairQueuesDoNotCreepUnderStandingBacklog keeps a 50-packet
// backlog in one class while 100,000 packets pass through it. A class
// that never empties must still reuse its queue storage, as DropTail
// does, instead of growing it by one slot per packet ever queued.
func TestFairQueuesDoNotCreepUnderStandingBacklog(t *testing.T) {
	for _, tc := range []struct {
		name string
		q    sim.Qdisc
	}{
		{"droptail", NewDropTail(0)},
		{"drr", NewDRR(ByFlow, sim.MSS, 0)},
		{"sfq", NewSFQ(0)},
	} {
		const backlog, cycles = 50, 100_000
		pkts := make([]*sim.Packet, backlog+1)
		for i := range pkts {
			pkts[i] = pkt(1, 1, sim.MSS)
		}
		for _, p := range pkts[:backlog] {
			tc.q.Enqueue(p, 0)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < cycles; i++ {
			tc.q.Enqueue(pkts[backlog], 0)
			pkts[backlog], _ = tc.q.Dequeue(0)
		}
		runtime.ReadMemStats(&after)
		if n := tc.q.Len(); n != backlog {
			t.Fatalf("%s: backlog %d, want %d", tc.name, n, backlog)
		}
		if b := after.TotalAlloc - before.TotalAlloc; b > 64<<10 {
			t.Errorf("%s: %d cycles at a %d-packet backlog allocated %d bytes", tc.name, cycles, backlog, b)
		}
	}
}

func TestSFQApproximatesFairness(t *testing.T) {
	s := NewSFQ(1 << 20)
	for i := 0; i < 100; i++ {
		s.Enqueue(pkt(1, 1, 1000), 0)
		s.Enqueue(pkt(2, 2, 1000), 0)
	}
	served := map[int]int{}
	for i := 0; i < 100; i++ {
		p, _ := s.Dequeue(0)
		if p == nil {
			break
		}
		served[p.FlowID]++
	}
	if served[1] < 40 || served[2] < 40 {
		t.Errorf("service = %v, want roughly even", served)
	}
	if s.Len() != 100 || s.Bytes() != 100*1000 {
		t.Errorf("len/bytes = %d/%d", s.Len(), s.Bytes())
	}
}

// unthrottled returns a UserIsolation whose plan never binds in a test:
// a bucket deep enough that every packet a test dequeues at one
// instant conforms, so only the DRR order shows.
func unthrottled(perUserBacklogBytes int) *UserIsolation {
	return NewUserIsolation(1e15, 1<<40, perUserBacklogBytes)
}

func TestUserIsolationRoundRobin(t *testing.T) {
	// MSS-sized packets: each visit's quantum is consumed exactly, so
	// the DRR pick sequence must be strict one-packet alternation —
	// the order the repo's byte-identical determinism contract relies
	// on for the fig1-style cells.
	u := unthrottled(1 << 20)
	for i := 0; i < 10; i++ {
		u.Enqueue(pkt(1, 1, sim.MSS), 0)
		u.Enqueue(pkt(2, 2, sim.MSS), 0)
	}
	for i := 0; i < 10; i++ {
		p, _ := u.Dequeue(0)
		if want := 1 + i%2; p.UserID != want {
			t.Fatalf("pick %d = user %d, want strict alternation (user %d)", i, p.UserID, want)
		}
	}

	// Sub-MSS packets: deficit carry makes the sequence bursty but
	// byte service must stay balanced to within one MSS.
	u = unthrottled(1 << 20)
	for i := 0; i < 100; i++ {
		u.Enqueue(pkt(1, 1, 700), 0)
		u.Enqueue(pkt(2, 2, 700), 0)
	}
	served := map[int]int{}
	for i := 0; i < 100; i++ {
		p, _ := u.Dequeue(0)
		served[p.UserID] += p.Size
	}
	if diff := served[1] - served[2]; diff > sim.MSS || diff < -sim.MSS {
		t.Errorf("byte service diverged beyond one MSS: %v", served)
	}
}

func TestUserIsolationAggregates(t *testing.T) {
	// Len/Bytes are cached aggregates: they must stay consistent with
	// the per-user queues through enqueues, refusals, and dequeues.
	u := unthrottled(4 * sim.MSS)
	for i := 0; i < 8; i++ { // per-user cap refuses half of these
		if !u.Enqueue(pkt(1, 1, sim.MSS), 0) {
			break
		}
	}
	u.Enqueue(pkt(2, 2, 500), 0)
	if u.Len() != 5 || u.Bytes() != 4*sim.MSS+500 {
		t.Fatalf("after enqueue: Len=%d Bytes=%d, want 5/%d", u.Len(), u.Bytes(), 4*sim.MSS+500)
	}
	if u.ActiveUsers() != 2 {
		t.Fatalf("ActiveUsers = %d, want 2", u.ActiveUsers())
	}
	for u.Len() > 0 {
		p, _ := u.Dequeue(0)
		if p == nil {
			t.Fatal("stalled with backlog")
		}
	}
	if u.Len() != 0 || u.Bytes() != 0 || u.ActiveUsers() != 0 {
		t.Fatalf("after drain: Len=%d Bytes=%d Active=%d, want zeros", u.Len(), u.Bytes(), u.ActiveUsers())
	}
}

// throttledCell reproduces the regime the manyflow cell keeps
// UserIsolation in: every user's plan is 4x its fair share of the
// link, 7.5% of the users are backlogged at any moment (so the link is
// ~30% utilised), and each of them refills its queue as it drains, so
// every backlogged user is waiting for tokens nearly all the time. The
// backlogged users start one after another across one token period,
// which leaves their release times spread out instead of in lockstep.
// The link is work-conserving: it dequeues when a transmission
// finishes and, when told "not yet", again at the reported ready time.
type throttledCell struct {
	u          *UserIsolation
	users      int
	backlogged int // how many of the users ever send
	started    int // how many of those have sent their first packets
	now        time.Duration
	tx         time.Duration // serialization time of one MSS packet
	dequeues   int
	served     int
}

func newThrottledCell(users int) *throttledCell {
	const linkBps = 1e9
	c := &throttledCell{
		u:          NewUserIsolation(4*linkBps/float64(users), 2*sim.MSS, 64*sim.MSS),
		users:      users,
		backlogged: users * 3 / 40,
		tx:         time.Duration(sim.MSS * 8 / linkBps * float64(time.Second)),
	}
	for id := 0; id < users; id++ {
		c.u.user(id)
	}
	return c
}

// startAt is when the k-th sender's first packets arrive: the senders
// are spread evenly over the users/4 transmission times one plan takes
// to earn a packet.
func (c *throttledCell) startAt(k int) time.Duration {
	return c.tx * time.Duration(c.users/4) * time.Duration(k) / time.Duration(c.backlogged)
}

// serve runs the link until n more packets have been transmitted.
func (c *throttledCell) serve(n int) {
	for target := c.served + n; c.served < target; {
		for ; c.started < c.backlogged && c.startAt(c.started) <= c.now; c.started++ {
			id := c.started * c.users / c.backlogged
			for i := 0; i < 3; i++ {
				c.u.Enqueue(pkt(id, id, sim.MSS), c.now)
			}
		}
		c.dequeues++
		p, ready := c.u.Dequeue(c.now)
		if p == nil {
			if c.started < c.backlogged && (ready == 0 || c.startAt(c.started) < ready) {
				ready = c.startAt(c.started)
			}
			c.now = ready
			continue
		}
		c.served++
		c.now += c.tx
		c.u.Enqueue(pkt(p.FlowID, p.UserID, sim.MSS), c.now)
	}
}

func TestUserIsolationThrottledDequeueIsBounded(t *testing.T) {
	// A count, not a clock: users examined per Dequeue must not grow
	// with the population. Scanning every token-throttled user on every
	// dequeue read 4.7 here at 100 users and 250 at 5,000 (7.1 and 267.9
	// in the manyflow cell itself).
	for _, users := range []int{100, 5000} {
		c := newThrottledCell(users)
		c.serve(2 * users) // start every sender and spend its burst
		examined, dequeues, start := c.u.examined, c.dequeues, c.now
		const pkts = 20000
		c.serve(pkts)
		examined, dequeues = c.u.examined-examined, c.dequeues-dequeues
		util := pkts * c.tx.Seconds() / (c.now - start).Seconds()
		if util < 0.2 || util > 0.4 {
			t.Errorf("%d users: link utilisation %.2f, want the cell's ~0.3", users, util)
		}
		if got := float64(examined) / float64(dequeues); got > 3 {
			t.Errorf("%d users: %.1f users examined per dequeue (%d / %d), want <= 3", users, got, examined, dequeues)
		}
	}
}

func TestUserIsolationRateCap(t *testing.T) {
	// Every user capped at 8 Mbit/s with a one-packet burst, each in
	// its own bucket.
	u := NewUserIsolation(8e6, 1000, 1<<20)
	for i := 0; i < 10; i++ {
		u.Enqueue(pkt(1, 1, 1000), 0)
	}
	u.Enqueue(pkt(2, 2, 1000), 0)
	// First: user 1's head conforms (burst).
	p, _ := u.Dequeue(0)
	if p.UserID != 1 {
		t.Fatalf("first = user %d", p.UserID)
	}
	// User 1 now out of tokens; user 2's bucket is still full.
	p, _ = u.Dequeue(0)
	if p.UserID != 2 {
		t.Fatalf("second = user %d, want user 2", p.UserID)
	}
	// Only throttled user 1 remains: Dequeue must report the ready time.
	p, ready := u.Dequeue(0)
	if p != nil || ready == 0 {
		t.Fatalf("expected throttle wait, got %+v ready=%v", p, ready)
	}
	p, _ = u.Dequeue(ready)
	if p == nil || p.UserID != 1 {
		t.Error("capped user should be served once tokens accrue")
	}
}

func TestUserIsolationRejectsNonPositiveRate(t *testing.T) {
	for _, rate := range []float64{0, -1, math.NaN()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewUserIsolation(%g, ...) did not panic", rate)
				}
			}()
			NewUserIsolation(rate, sim.MSS, 1<<20)
		}()
	}
}

func TestUserIsolationDefaultRate(t *testing.T) {
	u := NewUserIsolation(8e6, 1000, 1<<20)
	u.Enqueue(pkt(1, 1, 1000), 0)
	u.Enqueue(pkt(1, 1, 1000), 0)
	if p, _ := u.Dequeue(0); p == nil {
		t.Fatal("burst packet should conform")
	}
	if p, ready := u.Dequeue(0); p != nil || ready == 0 {
		t.Error("second packet should wait for tokens under the default cap")
	}
	if u.Len() != 1 || u.Bytes() != 1000 {
		t.Errorf("len/bytes = %d/%d", u.Len(), u.Bytes())
	}
}
