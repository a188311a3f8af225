package qdisc

import (
	"testing"
	"time"

	"repro/internal/sim"
)

// FuzzBucketTimeFor holds timeFor to its contract over the bucket's
// whole state: refill at the returned time covers need, and refill one
// nanosecond earlier does not, unless the returned time is now. need
// stays within the burst, the only sizes a bucket can ever cover.
func FuzzBucketTimeFor(f *testing.F) {
	// A wait of 2,666,666.67 ns, which truncation served short.
	f.Add(3e6, uint32(2*sim.MSS), 0.0, int64(0), int64(0), 1000.0)
	// A plan whose per-packet wait is a whole number of nanoseconds
	// only in exact arithmetic.
	f.Add(12e6, uint32(2*sim.MSS), 0.0, int64(7), int64(7), float64(sim.MSS))
	// A few bytes short at an odd nanosecond, not yet refilled to now.
	f.Add(4e6, uint32(16*sim.MSS), 1497.25, int64(1_000_003), int64(1_250_011), float64(sim.MSS))
	// The rounded-up quotient, 2,632,000 ns, falls a float step short
	// in refill's sum.
	f.Add(3e6, uint32(2*sim.MSS), 13.0, int64(0), int64(0), 1000.0)
	// The quotient lands a float step above a whole 252,800 ns, so
	// rounding up alone was a nanosecond late.
	f.Add(3e7, uint32(2*sim.MSS), 73.0, int64(0), int64(52), 1021.0)
	// Already covered: the answer is now.
	f.Add(1e9, uint32(sim.MSS), float64(sim.MSS), int64(5), int64(9), 64.0)
	f.Fuzz(func(t *testing.T, rateBits float64, burst uint32, tokens float64, last, now int64, need float64) {
		const horizon = 1 << 50 // ns, about 13 days
		if !(rateBits >= 1e3 && rateBits <= 1e12) || burst == 0 || burst > 1<<24 ||
			!(tokens >= 0 && tokens <= float64(burst)) || !(need > 0 && need <= float64(burst)) ||
			last < 0 || last > horizon || now < 0 || now > horizon {
			t.Skip()
		}
		b := newBucket(rateBits, int(burst))
		b.tokens, b.last = tokens, time.Duration(last)
		got := b.timeFor(time.Duration(now), need)
		if got < time.Duration(now) {
			t.Fatalf("timeFor(%d, %g) = %v, before now", now, need, got)
		}
		at := b
		at.refill(got)
		if at.tokens < need {
			t.Fatalf("timeFor(%d, %g) = %v, where refill reaches only %g", now, need, got, at.tokens)
		}
		if got == time.Duration(now) {
			return
		}
		early := b
		early.refill(got - 1)
		if early.tokens >= need {
			t.Fatalf("timeFor(%d, %g) = %v, but refill already reaches %g a nanosecond earlier", now, need, got, early.tokens)
		}
	})
}

// TestShaperServesAtReportedReadyTime drains a shaper the way sim.Link
// does — dequeue on arrival while idle and when a transmission ends,
// and when told "not yet", again at the reported ready time — with
// packets of mixed sizes arriving at odd nanoseconds. Every retry at a
// reported ready time must transmit: the shaper's head packet is the
// one the time was computed for.
func TestShaperServesAtReportedReadyTime(t *testing.T) {
	const (
		n       = 2000
		linkBps = 100e6
	)
	s := newTokenBucketShaper(12e6, 2*sim.MSS, 1<<22)
	sizes := []int{sim.MSS, 777, 64, 1201}
	arrive := func(k int) time.Duration { return time.Duration(k)*333_337 + 17 }
	var now, finishAt, retryAt time.Duration // zero: none pending
	busy, sent, retries := false, 0, 0
	kick := func(atReady bool) {
		p, ready := s.Dequeue(now)
		if p == nil && ready > now {
			if atReady {
				t.Fatalf("at reported ready time %v: nothing to send, next ready %v", now, ready)
			}
			retryAt = ready
			return
		}
		retryAt = 0
		if p != nil {
			busy, sent = true, sent+1
			finishAt = now + time.Duration(float64(p.Size*8)/linkBps*float64(time.Second))
		}
	}
	for k := 0; k < n || busy || retryAt > 0; {
		next := time.Duration(1 << 62)
		if k < n {
			next = arrive(k)
		}
		if busy && finishAt < next {
			next = finishAt
		}
		if retryAt > 0 && retryAt < next {
			next = retryAt
		}
		now = next
		switch {
		case busy && now == finishAt:
			busy = false
			kick(false)
		case retryAt > 0 && now == retryAt:
			retries++
			kick(true)
		default:
			s.Enqueue(pkt(1, 1, sizes[k%len(sizes)]), now)
			k++
			if !busy {
				kick(false)
			}
		}
	}
	if sent != n {
		t.Fatalf("sent %d of %d packets", sent, n)
	}
	if retries < n/4 {
		t.Errorf("%d retries over %d packets: the shaper was not the bottleneck", retries, n)
	}
}
