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
	fifo DropTail
	// DRR state: each round-robin visit grants MSS bytes; deficit
	// carries unspent grant while the user stays backlogged; granted
	// marks that the current visit's grant was already issued.
	deficit int
	granted bool
	// parked marks a backlogged user whose head packet its bucket cannot
	// cover: it waits on the release-time heap, not in the bitmap.
	parked bool
}

// parkedUser is a release-time heap entry: the key sits beside the
// user, so sifting compares without dereferencing.
type parkedUser struct {
	readyAt time.Duration
	c       *userClass
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
// most of them waiting for tokens most of the time. Users are found by
// id in a slice (ids are small and dense; they must not be negative).
// A backlogged user is in exactly one of two places: the eligible
// bitmap over sorted-id positions, which the DRR pass walks hopping
// over empty words by a summary bitmap, or — once a pass has found its
// bucket short of its head packet — a min-heap keyed by the first
// nanosecond its bucket covers that packet. Nothing about a parked
// user changes until that time (its head packet stays, its bucket only
// fills), so Dequeue never looks at it, and a user it takes off the
// heap conforms: a throttled packet costs one link wake-up, a served
// packet O(log users), and "nothing is ready until t" is the heap
// root, O(1).
// Len/Bytes return cached aggregates instead of walking the users.
// With an MSS grant per visit and MSS-sized packets the pick sequence
// is identical to one-packet-per-visit round robin, which the repo's
// byte-identical determinism contract depends on.
type UserIsolation struct {
	users   []*userClass // indexed by UserID; nil for an id not seen yet
	order   []*userClass // users in sorted-id order
	active  []uint64     // bit i set <=> order[i] is backlogged and not parked
	summary []uint64     // bit w set <=> active[w] != 0
	parked  []parkedUser // backlogged users short of tokens, min-heap on readyAt
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
		visit:      -1,
		rate:       planRateBits,
		burst:      burstBytes,
		perUserCap: perUserBacklogBytes,
	}
}

func (u *UserIsolation) user(id int) *userClass {
	if id >= 0 && id < len(u.users) && u.users[id] != nil {
		return u.users[id]
	}
	return u.addUser(id)
}

// addUser inserts a user at its sorted-id position.
func (u *UserIsolation) addUser(id int) *userClass {
	if id < 0 {
		panic(fmt.Sprintf("qdisc: user isolation needs non-negative user ids, got %d", id))
	}
	if id >= len(u.users) {
		u.users = append(u.users, make([]*userClass, id+1-len(u.users))...)
	}
	c := &userClass{id: id, b: newBucket(u.rate, u.burst), fifo: DropTail{limit: u.perUserCap}}
	u.users[id] = c
	pos := sort.Search(len(u.order), func(i int) bool { return u.order[i].id >= id })
	u.order = append(u.order, nil)
	copy(u.order[pos+1:], u.order[pos:])
	u.order[pos] = c
	if n := len(u.order); (n+63)/64 > len(u.active) {
		u.active = append(u.active, 0)
		if (len(u.active)+63)/64 > len(u.summary) {
			u.summary = append(u.summary, 0)
		}
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
// opening a zero bit at pos for a newly inserted (empty) user, and
// recomputes the summary bits of the words it touched.
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
	for i := w; i < len(u.active); i++ {
		if u.active[i] != 0 {
			u.summary[i>>6] |= 1 << uint(i&63)
		} else {
			u.summary[i>>6] &^= 1 << uint(i&63)
		}
	}
}

func (u *UserIsolation) setBit(pos int) {
	w := pos >> 6
	u.active[w] |= 1 << uint(pos&63)
	u.summary[w>>6] |= 1 << uint(w&63)
}

func (u *UserIsolation) clearBit(pos int) {
	w := pos >> 6
	if u.active[w] &^= 1 << uint(pos&63); u.active[w] == 0 {
		u.summary[w>>6] &^= 1 << uint(w&63)
	}
}

// park takes the user at c.pos out of the DRR pass until readyAt.
func (u *UserIsolation) park(c *userClass, readyAt time.Duration) {
	u.clearBit(c.pos)
	c.parked = true
	h := append(u.parked, parkedUser{})
	i := len(h) - 1
	for i > 0 {
		up := (i - 1) / 2
		if h[up].readyAt <= readyAt {
			break
		}
		h[i] = h[up]
		i = up
	}
	h[i] = parkedUser{readyAt, c}
	u.parked = h
}

// unparkRoot returns the heap root's user to the eligible bitmap.
func (u *UserIsolation) unparkRoot() {
	h := u.parked
	c := h[0].c
	last := len(h) - 1
	moved := h[last]
	h[last] = parkedUser{}
	h = h[:last]
	if last > 0 {
		i := 0
		for {
			kid := 2*i + 1
			if kid >= last {
				break
			}
			if r := kid + 1; r < last && h[r].readyAt < h[kid].readyAt {
				kid = r
			}
			if moved.readyAt <= h[kid].readyAt {
				break
			}
			h[i] = h[kid]
			i = kid
		}
		h[i] = moved
	}
	u.parked = h
	c.parked = false
	u.setBit(c.pos)
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
	if word := u.active[w] >> uint(from&63) << uint(from&63); word != 0 {
		return w<<6 + bits.TrailingZeros64(word)
	}
	// Hop to the next non-zero word by the summary.
	w++
	s := w >> 6
	if s >= len(u.summary) {
		return -1
	}
	sum := u.summary[s] >> uint(w&63) << uint(w&63)
	for sum == 0 {
		s++
		if s >= len(u.summary) {
			return -1
		}
		sum = u.summary[s]
	}
	w = s<<6 + bits.TrailingZeros64(sum)
	return w<<6 + bits.TrailingZeros64(u.active[w])
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
		u.unparkRoot()
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
		u.park(c, c.b.timeFor(now, need))
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
