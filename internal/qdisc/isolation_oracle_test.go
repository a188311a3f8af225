package qdisc

import (
	"fmt"
	"math/bits"
	"sort"
	"testing"
	"time"

	"repro/internal/sim"
)

// oracleIsolation is the reference UserIsolation is fuzzed against: the
// same discipline written the slow, obvious way. There is no bitmap and
// no heap — every Dequeue walks every user, skips the ones whose
// release time lies ahead, and takes the minimum of those times for its
// return value. Release-time semantics are the scheduler's own: a user
// found short of tokens is given the time its bucket will cover its
// head packet and is not looked at (so not refilled) before then.
type oracleIsolation struct {
	users []*oracleUser // sorted by id
	rr    int           // never adjusted on insert, like the scheduler's
	visit int

	rate       float64
	burst      int
	perUserCap int
	dropped    int64
}

type oracleUser struct {
	id      int
	b       bucket
	q       []*sim.Packet
	bytes   int
	deficit int
	granted bool
	parked  bool
	readyAt time.Duration
}

func newOracleIsolation(planRateBits float64, burstBytes, perUserBacklogBytes int) *oracleIsolation {
	return &oracleIsolation{visit: -1, rate: planRateBits, burst: burstBytes, perUserCap: perUserBacklogBytes}
}

func (o *oracleIsolation) user(id int) *oracleUser {
	pos := sort.Search(len(o.users), func(i int) bool { return o.users[i].id >= id })
	if pos < len(o.users) && o.users[pos].id == id {
		return o.users[pos]
	}
	c := &oracleUser{id: id, b: newBucket(o.rate, o.burst)}
	o.users = append(o.users, nil)
	copy(o.users[pos+1:], o.users[pos:])
	o.users[pos] = c
	if o.visit >= pos {
		o.visit++
	}
	return c
}

func (o *oracleIsolation) Enqueue(p *sim.Packet, _ time.Duration) bool {
	c := o.user(p.UserID)
	if c.bytes+p.Size > o.perUserCap {
		o.dropped++
		return false
	}
	c.q = append(c.q, p)
	c.bytes += p.Size
	return true
}

func (o *oracleIsolation) Dequeue(now time.Duration) (*sim.Packet, time.Duration) {
	if o.Len() == 0 {
		return nil, 0
	}
	for _, c := range o.users {
		if c.parked && c.readyAt <= now {
			c.parked = false
		}
	}
	n := len(o.users)
	for {
		start := o.rr
		if o.visit >= 0 {
			start = o.visit
		}
		if start >= n {
			start = 0
		}
		deficitSkip := false
		for k := 0; k < n; k++ {
			pos := (start + k) % n
			c := o.users[pos]
			if len(c.q) == 0 || c.parked {
				continue
			}
			head := c.q[0]
			c.b.refill(now)
			if need := float64(head.Size); c.b.tokens < need {
				c.parked = true
				c.readyAt = c.b.timeFor(now, need)
				c.granted = false
				if o.visit == pos {
					o.visit = -1
				}
				continue
			}
			if !c.granted {
				c.deficit += sim.MSS
				c.granted = true
			}
			if c.deficit < head.Size {
				c.granted = false
				deficitSkip = true
				if o.visit == pos {
					o.visit = -1
				}
				continue
			}
			c.b.tokens -= float64(head.Size)
			c.q = c.q[1:]
			c.bytes -= head.Size
			c.deficit -= head.Size
			if len(c.q) == 0 {
				c.deficit = 0
				c.granted = false
				o.visit = -1
			} else {
				o.visit = pos
			}
			o.rr = (pos + 1) % n
			return head, 0
		}
		if deficitSkip {
			continue
		}
		var earliest time.Duration
		for _, c := range o.users {
			if c.parked && (earliest == 0 || c.readyAt < earliest) {
				earliest = c.readyAt
			}
		}
		return nil, earliest
	}
}

func (o *oracleIsolation) Len() (n int) {
	for _, c := range o.users {
		n += len(c.q)
	}
	return n
}

func (o *oracleIsolation) Bytes() (n int) {
	for _, c := range o.users {
		n += c.bytes
	}
	return n
}

func (o *oracleIsolation) ActiveUsers() (n int) {
	for _, c := range o.users {
		if len(c.q) > 0 {
			n++
		}
	}
	return n
}

// verify checks the scheduler's structure: every backlogged user is in
// exactly one of {eligible bitmap, release-time heap}, nobody else is in
// either, the id index and positions point where they claim to, the
// parked flags mark exactly the users on the heap, the summary bitmap
// marks exactly the non-zero words, the heap is ordered, and the cached
// aggregates match the queues.
func (u *UserIsolation) verify() error {
	indexed := 0
	for id, c := range u.users {
		if c == nil {
			continue
		}
		indexed++
		if c.id != id {
			return fmt.Errorf("index slot %d holds user %d", id, c.id)
		}
	}
	if indexed != len(u.order) {
		return fmt.Errorf("order holds %d users, index %d", len(u.order), indexed)
	}
	var setBits, pkts, bytes, backlogged, flagged, nonZero, summaryBits int
	for w, word := range u.active {
		setBits += bits.OnesCount64(word)
		if word != 0 {
			nonZero++
		}
		if sum := u.summary[w>>6]&(1<<uint(w&63)) != 0; sum != (word != 0) {
			return fmt.Errorf("summary bit %d is %v for active word %#x", w, sum, word)
		}
	}
	for _, sum := range u.summary {
		summaryBits += bits.OnesCount64(sum)
	}
	if summaryBits != nonZero {
		return fmt.Errorf("summary marks %d words, %d are non-zero", summaryBits, nonZero)
	}
	for i, c := range u.order {
		if c.pos != i || c.id >= len(u.users) || u.users[c.id] != c {
			return fmt.Errorf("user %d at position %d claims pos %d (indexed: %v)", c.id, i, c.pos, c.id < len(u.users) && u.users[c.id] == c)
		}
		if i > 0 && u.order[i-1].id >= c.id {
			return fmt.Errorf("order not ascending at position %d", i)
		}
		bit := u.active[i>>6]&(1<<uint(i&63)) != 0
		if c.parked {
			flagged++
		}
		if c.fifo.Len() > 0 {
			backlogged++
			if bit == c.parked {
				return fmt.Errorf("backlogged user %d: eligible=%v parked=%v, want exactly one", c.id, bit, c.parked)
			}
		} else if bit || c.parked {
			return fmt.Errorf("idle user %d: eligible=%v parked=%v", c.id, bit, c.parked)
		}
		pkts += c.fifo.Len()
		bytes += c.fifo.Bytes()
	}
	onHeap := make(map[*userClass]bool, len(u.parked))
	for i, e := range u.parked {
		if !e.c.parked || onHeap[e.c] || e.c.id >= len(u.users) || u.users[e.c.id] != e.c {
			return fmt.Errorf("heap slot %d holds user %d (flagged %v, twice %v)", i, e.c.id, e.c.parked, onHeap[e.c])
		}
		onHeap[e.c] = true
		if i > 0 && u.parked[(i-1)/2].readyAt > e.readyAt {
			return fmt.Errorf("heap order broken at slot %d", i)
		}
	}
	if flagged != len(u.parked) {
		return fmt.Errorf("%d users flagged parked, %d on the heap", flagged, len(u.parked))
	}
	if setBits+len(u.parked) != backlogged || u.ActiveUsers() != backlogged {
		return fmt.Errorf("%d bits + %d parked, ActiveUsers %d, %d backlogged", setBits, len(u.parked), u.ActiveUsers(), backlogged)
	}
	if pkts != u.pkts || bytes != u.bytes {
		return fmt.Errorf("cached len/bytes %d/%d, queues hold %d/%d", u.pkts, u.bytes, pkts, bytes)
	}
	return nil
}

// dueConforms reports whether some parked user is due by now and has a
// head packet its bucket can hold, so a Dequeue at now must serve.
func (u *UserIsolation) dueConforms(now time.Duration) bool {
	for _, e := range u.parked {
		if e.readyAt <= now && e.c.fifo.peek().Size <= u.burst {
			return true
		}
	}
	return false
}

// FuzzUserIsolationSchedule drives UserIsolation and the naive oracle
// with the same operation stream — enqueues of full-size and short
// packets (the 4-packet per-user cap overflows often), dequeues, clock
// advances by a given step or to the last reported ready time, and
// user ids that first appear before and after the round-robin cursor —
// and requires identical (packet, ready) results, equal aggregates and
// a sound structure after every operation. A reported ready time is
// never early: a Dequeue serves a packet whenever some parked user is
// due, so at a time the retry jump took from a Dequeue, unless every
// due user's head packet is larger than its burst, which never
// conforms. The input is consumed as (opcode, argument) byte pairs;
// the first byte picks every user's plan rate and burst. Opcodes 6
// and 7 repeat a dequeue and the retry jump, so inputs written when
// they changed a user's plan or weight still run.
func FuzzUserIsolationSchedule(f *testing.F) {
	// Two capped users drained through the retry timer.
	f.Add([]byte{1, 0, 1, 0, 1, 0, 2, 0, 2, 3, 0, 3, 0, 5, 0, 3, 0, 5, 0, 3, 0, 5, 0, 3, 0})
	// Ids arriving on both sides of the cursor while a visit is open.
	f.Add([]byte{0, 0, 16, 2, 16, 0, 16, 3, 0, 0, 4, 0, 30, 3, 0, 0, 1, 3, 0, 3, 0, 3, 0})
	// Dequeues and retry jumps around a parked user.
	f.Add([]byte{2, 0, 7, 0, 7, 0, 7, 3, 0, 3, 0, 3, 0, 6, 7 | 1<<5, 3, 0, 6, 7 | 3<<5, 5, 0, 3, 0, 6, 7, 3, 0, 6, 7 | 2<<5, 3, 0})
	// Short packets: deficit carried across parked spells.
	f.Add([]byte{1, 7, 3 | 2<<5, 2, 3, 2, 3 | 4<<5, 2, 3, 0, 9, 3, 0, 3, 0, 4, 200, 3, 0, 7, 3, 3, 0, 5, 0, 3, 0})
	// Per-user cap overflow, then a long drain in small clock steps.
	f.Add([]byte{2, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 3, 0, 4, 1, 3, 0, 4, 1, 3, 0, 4, 255, 3, 0, 3, 0, 3, 0})
	// A 264-byte packet behind a full one, 6 ns off the token grid:
	// truncating the wait reported a ready time a nanosecond early.
	f.Add([]byte{1, 0, 6, 2, 6 | 1<<5, 3, 0, 4, 6, 3, 0, 7, 0, 3, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		if len(data) > 1024 {
			data = data[:1024] // ~500 ops keep one execution near a millisecond
		}
		plans := []float64{1e9, 1e6, 4e6, 16e6}
		bursts := []int{sim.MSS, 1000, 2 * sim.MSS, 16 * sim.MSS}
		rate, burst := plans[data[0]%4], bursts[(data[0]>>2)%4]
		u := NewUserIsolation(rate, burst, 4*sim.MSS)
		o := newOracleIsolation(rate, burst, 4*sim.MSS)
		var now, lastReady time.Duration
		flow := 0
		for i := 1; i+1 < len(data); i += 2 {
			op, arg := data[i], data[i+1]
			id := int(arg & 31)
			ctx := fmt.Sprintf("op %d (%d,%d) at %v", i/2, op, arg, now)
			switch op % 8 {
			case 0, 1, 2: // enqueue: MSS, MSS, or a short packet sized by the high bits
				size := sim.MSS
				if op%8 == 2 {
					size = 64 + 200*int(arg>>5)
				}
				flow++
				p := pkt(flow, id, size)
				if got, want := u.Enqueue(p, now), o.Enqueue(p, now); got != want {
					t.Fatalf("%s: Enqueue = %v, oracle %v", ctx, got, want)
				}
			case 3, 6: // dequeue
				mustServe := u.dueConforms(now)
				p, ready := u.Dequeue(now)
				want, wantReady := o.Dequeue(now)
				if p != want || ready != wantReady {
					t.Fatalf("%s: Dequeue = (%v, %v), oracle (%v, %v)", ctx, p, ready, want, wantReady)
				}
				if p == nil && u.Len() > 0 && ready <= now {
					t.Fatalf("%s: backlog of %d but ready time %v is not ahead", ctx, u.Len(), ready)
				}
				if p == nil && mustServe {
					t.Fatalf("%s: nothing served at a reported ready time", ctx)
				}
				lastReady = ready
			case 4: // advance the clock; small arguments step by nanoseconds
				if arg < 16 {
					now += time.Duration(arg)
				} else {
					now += time.Duration(arg) * 20 * time.Microsecond
				}
			case 5, 7: // the link's retry timer: jump to the reported ready time
				if lastReady > now {
					now = lastReady
				}
			}
			if err := u.verify(); err != nil {
				t.Fatalf("%s: %v", ctx, err)
			}
			if u.Len() != o.Len() || u.Bytes() != o.Bytes() || u.ActiveUsers() != o.ActiveUsers() || u.Dropped != o.dropped {
				t.Fatalf("%s: len/bytes/active/dropped %d/%d/%d/%d, oracle %d/%d/%d/%d", ctx,
					u.Len(), u.Bytes(), u.ActiveUsers(), u.Dropped, o.Len(), o.Bytes(), o.ActiveUsers(), o.dropped)
			}
		}

		// Drain through the retry timer: both must empty in lockstep. A
		// head packet larger than its user's burst never conforms, so
		// the loop is bounded rather than run to empty.
		for step := 0; u.Len() > 0 && step < 4096; step++ {
			mustServe := u.dueConforms(now)
			p, ready := u.Dequeue(now)
			want, wantReady := o.Dequeue(now)
			if p != want || ready != wantReady {
				t.Fatalf("drain at %v: Dequeue = (%v, %v), oracle (%v, %v)", now, p, ready, want, wantReady)
			}
			if p == nil {
				if mustServe {
					t.Fatalf("drain at %v: nothing served at a reported ready time", now)
				}
				if ready <= now {
					t.Fatalf("drain at %v: backlog of %d but ready time %v is not ahead", now, u.Len(), ready)
				}
				now = ready
			}
			if err := u.verify(); err != nil {
				t.Fatalf("drain at %v: %v", now, err)
			}
		}
		if u.Len() != o.Len() {
			t.Fatalf("after drain: %d queued, oracle %d", u.Len(), o.Len())
		}
	})
}
