package qdisc

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/sim"
)

// everyDiscipline builds one instance of each discipline with the
// given byte limit, for edge-config sweeps.
func everyDiscipline(limit int) map[string]sim.Qdisc {
	return map[string]sim.Qdisc{
		"droptail": NewDropTail(limit),
		"codel":    NewCoDel(limit),
		"drr":      NewDRR(ByFlow, sim.MSS, limit),
		"fq_codel": NewFQCoDel(ByFlow, limit),
		"sfq":      NewSFQ(limit),
		"shaper":   newTokenBucketShaper(1e6, 2*sim.MSS, limit),
		"user-iso": NewUserIsolation(1e6, 2*sim.MSS, limit),
	}
}

// TestDequeueFromEmpty: every discipline must return a nil packet from
// an empty queue — repeatedly, at any clock value — without panicking.
func TestDequeueFromEmpty(t *testing.T) {
	qs := everyDiscipline(10000)
	qs["policer"] = newTokenBucketPolicer(1e6, 2*sim.MSS)
	for name, q := range qs {
		for _, now := range []time.Duration{0, time.Millisecond, time.Hour} {
			if p, _ := q.Dequeue(now); p != nil {
				t.Errorf("%s: empty dequeue at %v returned %v", name, now, p)
			}
		}
		if q.Len() != 0 || q.Bytes() != 0 {
			t.Errorf("%s: empty queue reports len=%d bytes=%d", name, q.Len(), q.Bytes())
		}
	}
}

// TestZeroCapacityNormalizes: a non-positive byte limit must not
// produce a queue that refuses everything (the disciplines normalize
// it to an effectively unbounded buffer) — and enqueue/dequeue must
// still round-trip.
func TestZeroCapacityNormalizes(t *testing.T) {
	for _, limit := range []int{0, -1} {
		for name, q := range everyDiscipline(limit) {
			p := pkt(1, 1, sim.MSS)
			if !q.Enqueue(p, 0) {
				t.Errorf("%s(limit=%d): refused a packet", name, limit)
				continue
			}
			got, ready := q.Dequeue(time.Second)
			for got == nil && ready > 0 && ready <= time.Minute {
				got, ready = q.Dequeue(ready) // token buckets gate release
			}
			if got != p {
				t.Errorf("%s(limit=%d): packet did not round-trip (got %v)", name, limit, got)
			}
		}
	}
}

// TestTinyCapacityBoundary: with room for exactly two packets, the
// third enqueue must be refused and the queue must stay consistent —
// the enqueue-at-capacity boundary is exact, not off-by-one.
func TestTinyCapacityBoundary(t *testing.T) {
	const size = 500
	for name, q := range everyDiscipline(2 * size) {
		if name == "shaper" || name == "user-iso" {
			// Token-bucket backlogs gate on rate, not just bytes;
			// covered by their own tests.
			continue
		}
		if !q.Enqueue(pkt(1, 1, size), 0) || !q.Enqueue(pkt(1, 1, size), 0) {
			t.Errorf("%s: packets within capacity refused", name)
			continue
		}
		if q.Enqueue(pkt(1, 1, size), 0) {
			t.Errorf("%s: enqueue past byte capacity accepted", name)
		}
		if q.Len() != 2 || q.Bytes() != 2*size {
			t.Errorf("%s: len=%d bytes=%d after boundary probe, want 2/%d",
				name, q.Len(), q.Bytes(), 2*size)
		}
		// Draining frees exactly the refused packet's worth of room.
		if p, _ := q.Dequeue(0); p == nil {
			t.Errorf("%s: dequeue after boundary probe returned nil", name)
		}
		if !q.Enqueue(pkt(1, 1, size), 0) {
			t.Errorf("%s: freed capacity not reusable", name)
		}
	}
}

// TestFaultWrappersOnEdgeQueues: the fault injectors must preserve the
// Qdisc contract even around degenerate inner queues — dequeue from
// empty stays nil, a tiny queue's refusals propagate, and no wrapper
// wedges holding a packet it cannot release.
func TestFaultWrappersOnEdgeQueues(t *testing.T) {
	wrappers := map[string]func(sim.Qdisc) sim.Qdisc{
		"loss": func(q sim.Qdisc) sim.Qdisc { return faults.NewLoss(q, 0.5, rand.New(rand.NewSource(1))) },
		"ge": func(q sim.Qdisc) sim.Qdisc {
			return faults.NewGilbertElliott(q, faults.GESpec{PGoodBad: 0.5}, rand.New(rand.NewSource(2)))
		},
		"dup": func(q sim.Qdisc) sim.Qdisc { return faults.NewDuplicator(q, 0.5, rand.New(rand.NewSource(3))) },
		"jitter": func(q sim.Qdisc) sim.Qdisc {
			return faults.NewJitter(q, 5*time.Millisecond, rand.New(rand.NewSource(4)))
		},
		"reorder": func(q sim.Qdisc) sim.Qdisc {
			return faults.NewReorderer(q, 0.5, 5*time.Millisecond, rand.New(rand.NewSource(5)))
		},
		"outage": func(q sim.Qdisc) sim.Qdisc {
			return faults.NewPeriodicOutage(q, 20*time.Millisecond, 5*time.Millisecond)
		},
		"composite": func(q sim.Qdisc) sim.Qdisc { return mustProfile(q) },
	}
	for wname, wrap := range wrappers {
		// Empty inner queue: nil packet forever, no stall marker lost.
		q := wrap(NewDropTail(10000))
		for _, now := range []time.Duration{0, time.Millisecond, time.Second} {
			if p, _ := q.Dequeue(now); p != nil {
				t.Errorf("%s on empty queue returned %v at %v", wname, p, now)
			}
		}

		// Tiny inner queue: feed packets and drain with the documented
		// retry protocol; every byte offered must come out or be
		// accounted as an injector drop. 200 packets ensures each
		// probabilistic arm fires at p=0.5.
		inner := NewDropTail(1 << 20)
		q = wrap(inner)
		in := 0
		now := time.Duration(0)
		for i := 0; i < 200; i++ {
			if q.Enqueue(pkt(1, 1, 100), now) {
				in++
			}
			now += time.Millisecond
		}
		out := 0
		for deadline := now + time.Minute; now < deadline; {
			p, ready := q.Dequeue(now)
			if p != nil {
				out++
				continue
			}
			if ready <= now {
				if q.Len() != 0 {
					t.Errorf("%s wedged: %d packets held with no ready time", wname, q.Len())
				}
				break
			}
			now = ready
		}
		if q.Len() != 0 {
			t.Errorf("%s: %d packets never released", wname, q.Len())
		}
		if out == 0 && in > 0 {
			t.Errorf("%s: %d packets in, none out", wname, in)
		}
	}
}

func mustProfile(q sim.Qdisc) sim.Qdisc {
	p, err := faults.Lookup("flaky-cellular")
	if err != nil {
		panic(err)
	}
	return p.Build(new(sim.Engine), q, 9).Qdisc()
}
