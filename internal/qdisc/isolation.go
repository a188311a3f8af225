package qdisc

import (
	"fmt"
	"math/bits"
	"sort"
	"time"

	"repro/internal/sim"
)

type userClass struct {
	id   int
	pos  int // position in sorted-id order; maintained across inserts
	b    bucket
	fifo *DropTail
	// DRR state: each round-robin visit grants MSS bytes; deficit
	// carries unspent grant while the user stays backlogged; granted
	// marks that the current visit's grant was already issued.
	deficit int
	granted bool
	// Parked state: a backlogged user whose head packet its bucket
	// cannot cover sits on the release-time heap at index heapIdx (-1
	// when not parked) until readyAt, the time the tokens accrue.
	readyAt time.Duration
	heapIdx int
}

// UserIsolation is a two-level discipline modelling the access-network
// arrangement Figure 1 of the paper describes: each subscriber (UserID)
// is throttled to a purchased rate by a token bucket ("operator
// throttling") and backlogged subscribers share the link by deficit
// round robin ("isolation", an HTB stand-in). Flows within a
// subscriber share a FIFO, so intra-user CCA contention remains
// possible while inter-user contention is removed — exactly the
// asymmetry §2.2 discusses.
//
// The discipline is built for many-flow cells with 10k+ subscribers,
// most of them waiting for tokens most of the time. A backlogged user
// is in exactly one of two places: the eligible bitmap over sorted-id
// positions, which the DRR pass walks, or — once a pass has found its
// bucket short of its head packet — a min-heap keyed by the time the
// tokens accrue. Nothing about a parked user changes until that time
// (its head packet stays, its bucket only fills), so Dequeue never
// looks at it: a served packet costs O(log users) and "nothing is
// ready until t" is the heap root, O(1). Len/Bytes return cached
// aggregates instead of walking the users. With an MSS grant per visit
// and MSS-sized packets the pick sequence is identical to
// one-packet-per-visit round robin, which the repo's byte-identical
// determinism contract depends on.
type UserIsolation struct {
	users  map[int]*userClass
	order  []*userClass // users in sorted-id order
	active []uint64     // bit i set <=> order[i] is backlogged and not parked
	parked []*userClass // backlogged users short of tokens, min-heap on readyAt
	// rr is the scan-start position. It is deliberately NOT adjusted
	// when a new user id is inserted before it: the original
	// implementation kept a raw index across insertions, and the
	// resulting pick sequence is part of the determinism contract.
	rr    int
	visit int // position of the user mid-DRR-visit, -1 if none
	pkts  int
	bytes int
	// examined counts serveAt calls; the scaling test divides it by the
	// number of dequeues.
	examined int64

	rate       float64 // every user's plan, bits/s
	burst      int
	perUserCap int // bytes of backlog per user
	// Dropped counts refused packets.
	Dropped int64
}

// NewUserIsolation returns the discipline. planRateBits caps each
// user's throughput and must be positive; perUserBacklogBytes bounds
// each user's queue.
func NewUserIsolation(planRateBits float64, burstBytes, perUserBacklogBytes int) *UserIsolation {
	if !(planRateBits > 0) {
		panic(fmt.Sprintf("qdisc: user isolation needs a positive plan rate, got %g", planRateBits))
	}
	if perUserBacklogBytes <= 0 {
		perUserBacklogBytes = 256 * sim.MSS
	}
	return &UserIsolation{
		users:      make(map[int]*userClass),
		visit:      -1,
		rate:       planRateBits,
		burst:      burstBytes,
		perUserCap: perUserBacklogBytes,
	}
}

func (u *UserIsolation) user(id int) *userClass {
	if c := u.users[id]; c != nil {
		return c
	}
	c := &userClass{id: id, b: newBucket(u.rate, u.burst), fifo: NewDropTail(u.perUserCap), heapIdx: -1}
	u.users[id] = c
	pos := sort.Search(len(u.order), func(i int) bool { return u.order[i].id >= id })
	u.order = append(u.order, nil)
	copy(u.order[pos+1:], u.order[pos:])
	u.order[pos] = c
	if n := len(u.order); (n+63)/64 > len(u.active) {
		u.active = append(u.active, 0)
	}
	u.insertBit(pos)
	for i := pos; i < len(u.order); i++ {
		u.order[i].pos = i
	}
	if u.visit >= pos {
		u.visit++
	}
	return c
}

// insertBit shifts all occupancy bits at positions >= pos up by one,
// opening a zero bit at pos for a newly inserted (empty) user.
func (u *UserIsolation) insertBit(pos int) {
	w := pos >> 6
	b := uint(pos & 63)
	low := u.active[w] & (1<<b - 1)
	rest := u.active[w] &^ (1<<b - 1)
	carry := rest >> 63
	u.active[w] = low | rest<<1
	for i := w + 1; i < len(u.active); i++ {
		next := u.active[i] >> 63
		u.active[i] = u.active[i]<<1 | carry
		carry = next
	}
}

func (u *UserIsolation) setBit(pos int)   { u.active[pos>>6] |= 1 << uint(pos&63) }
func (u *UserIsolation) clearBit(pos int) { u.active[pos>>6] &^= 1 << uint(pos&63) }

// park takes the user at c.pos out of the DRR pass until c.readyAt.
func (u *UserIsolation) park(c *userClass) {
	u.clearBit(c.pos)
	c.heapIdx = len(u.parked)
	u.parked = append(u.parked, c)
	u.fixHeap(c.heapIdx)
}

// unpark returns a parked user to the eligible bitmap.
func (u *UserIsolation) unpark(c *userClass) {
	i, last := c.heapIdx, len(u.parked)-1
	moved := u.parked[last]
	u.parked[last] = nil
	u.parked = u.parked[:last]
	c.heapIdx = -1
	if i != last {
		u.parked[i] = moved
		moved.heapIdx = i
		u.fixHeap(i)
	}
	u.setBit(c.pos)
}

// fixHeap restores heap order around index i after its key changed.
func (u *UserIsolation) fixHeap(i int) {
	h := u.parked
	c := h[i]
	for i > 0 {
		up := (i - 1) / 2
		if h[up].readyAt <= c.readyAt {
			break
		}
		h[i] = h[up]
		h[i].heapIdx = i
		i = up
	}
	for {
		kid := 2*i + 1
		if kid >= len(h) {
			break
		}
		if r := kid + 1; r < len(h) && h[r].readyAt < h[kid].readyAt {
			kid = r
		}
		if c.readyAt <= h[kid].readyAt {
			break
		}
		h[i] = h[kid]
		h[i].heapIdx = i
		i = kid
	}
	h[i] = c
	c.heapIdx = i
}

// nextActive returns the first eligible position >= from, or -1.
func (u *UserIsolation) nextActive(from int) int {
	if from < 0 {
		from = 0
	}
	w := from >> 6
	if w >= len(u.active) {
		return -1
	}
	word := u.active[w] >> uint(from&63) << uint(from&63)
	for {
		if word != 0 {
			return w<<6 + bits.TrailingZeros64(word)
		}
		w++
		if w >= len(u.active) {
			return -1
		}
		word = u.active[w]
	}
}

// Enqueue implements sim.Qdisc.
func (u *UserIsolation) Enqueue(p *sim.Packet, now time.Duration) bool {
	c := u.user(p.UserID)
	if !c.fifo.Enqueue(p, now) {
		u.Dropped++
		return false
	}
	u.pkts++
	u.bytes += p.Size
	if c.fifo.Len() == 1 {
		u.setBit(c.pos)
	}
	return true
}

// Dequeue implements sim.Qdisc: deficit round robin over
// backlogged users whose head packet conforms to their token bucket.
// If every backlogged user is waiting for tokens, it reports the
// earliest ready time.
func (u *UserIsolation) Dequeue(now time.Duration) (*sim.Packet, time.Duration) {
	if u.pkts == 0 {
		return nil, 0
	}
	for len(u.parked) > 0 && u.parked[0].readyAt <= now {
		u.unpark(u.parked[0])
	}
	// Each outer round issues at most one grant per backlogged user.
	// A user skipped for insufficient deficit gains MSS bytes per
	// round, so some user's deficit reaches its head size in
	// finitely many rounds: the loop terminates with a packet unless
	// every backlogged user is token-throttled.
	for {
		start := u.rr
		if u.visit >= 0 {
			// Resume the in-progress visit first so leftover deficit is
			// spent before the cursor moves on.
			start = u.visit
		}
		if start >= len(u.order) {
			start = 0
		}
		deficitSkip := false
		pos := u.nextActive(start)
		wrapped := false
		if pos < 0 {
			pos = u.nextActive(0)
			wrapped = true
		}
		for pos >= 0 {
			if p := u.serveAt(pos, now, &deficitSkip); p != nil {
				return p, 0
			}
			next := u.nextActive(pos + 1)
			if next < 0 && !wrapped {
				next = u.nextActive(0)
				wrapped = true
			}
			if wrapped && next >= start {
				next = -1 // full circle
			}
			pos = next
		}
		if !deficitSkip {
			// pkts > 0 and nobody eligible: everyone backlogged is parked.
			return nil, u.parked[0].readyAt
		}
	}
}

// serveAt attempts to serve the eligible user at position pos,
// returning its head packet on success. A user short of tokens is
// parked until they accrue; on insufficient deficit it sets
// deficitSkip so the caller runs another grant round.
func (u *UserIsolation) serveAt(pos int, now time.Duration, deficitSkip *bool) *sim.Packet {
	u.examined++
	c := u.order[pos]
	head := c.fifo.peek()
	c.b.refill(now)
	need := float64(head.Size)
	if c.b.tokens < need {
		c.granted = false
		if u.visit == pos {
			u.visit = -1
		}
		c.readyAt = c.b.timeFor(now, need)
		u.park(c)
		return nil
	}
	if !c.granted {
		c.deficit += sim.MSS
		c.granted = true
	}
	if c.deficit < head.Size {
		c.granted = false
		*deficitSkip = true
		if u.visit == pos {
			u.visit = -1
		}
		return nil
	}
	c.b.tokens -= need
	p, _ := c.fifo.Dequeue(now)
	c.deficit -= p.Size
	u.pkts--
	u.bytes -= p.Size
	if c.fifo.Len() == 0 {
		u.clearBit(pos)
		c.deficit = 0
		c.granted = false
		u.visit = -1
	} else {
		u.visit = pos
	}
	u.rr = (pos + 1) % len(u.order)
	return p
}

// Len implements sim.Qdisc.
func (u *UserIsolation) Len() int { return u.pkts }

// Bytes implements sim.Qdisc.
func (u *UserIsolation) Bytes() int { return u.bytes }
