package qdisc

import (
	"math"
	"time"

	"repro/internal/sim"
)

// bucket is the shared token accounting for shapers and policers.
type bucket struct {
	rate   float64 // tokens (bytes) per second
	burst  float64 // bucket depth in bytes
	tokens float64
	last   time.Duration
}

func newBucket(rateBits float64, burstBytes int) bucket {
	return bucket{rate: rateBits / 8, burst: float64(burstBytes), tokens: float64(burstBytes)}
}

func (b *bucket) refill(now time.Duration) {
	if now > b.last {
		b.tokens += b.rate * (now - b.last).Seconds()
		if b.tokens > b.burst {
			b.tokens = b.burst
		}
		b.last = now
	}
}

// timeFor returns the first nanosecond at which refill covers need
// bytes: refill at the returned time leaves at least need tokens, and
// refill one nanosecond earlier would not, unless the time is now. need
// must not exceed the burst, or refill never covers it.
func (b *bucket) timeFor(now time.Duration, need float64) time.Duration {
	if b.tokens >= need {
		return now
	}
	// The rounded-up quotient is the answer up to float rounding, which
	// can leave it a step short of (or, rarely, past) refill's own sum;
	// settle it there. A wait that lands before now is due now.
	t := b.last + time.Duration(math.Ceil((need-b.tokens)/b.rate*float64(time.Second)))
	for !b.covers(t, need) {
		t++
	}
	for t-1 > b.last && b.covers(t-1, need) {
		t--
	}
	if t < now {
		return now
	}
	return t
}

// covers reports whether refill at t, uncapped, would reach need.
func (b *bucket) covers(t time.Duration, need float64) bool {
	return t > b.last && b.tokens+b.rate*(t-b.last).Seconds() >= need
}

// TokenBucketShaper delays packets that exceed the configured rate,
// holding them in an internal FIFO: the ISP "shaping" behaviour. It is
// non-work-conserving: Dequeue reports when the head packet's tokens
// will accrue.
type TokenBucketShaper struct {
	b    bucket
	fifo *DropTail
	// Dropped counts packets refused because the backlog FIFO was full.
	Dropped int64
}

// tokenBurst is the shaper's and the policer's burst allowance in
// bytes.
const tokenBurst = 16 * sim.MSS

// NewTokenBucketShaper returns a shaper limiting throughput to rateBits
// bits/s with a tokenBurst allowance and the given backlog capacity in
// bytes.
func NewTokenBucketShaper(rateBits float64, backlogBytes int) *TokenBucketShaper {
	return newTokenBucketShaper(rateBits, tokenBurst, backlogBytes)
}

// newTokenBucketShaper is NewTokenBucketShaper with the burst the
// tests pick.
func newTokenBucketShaper(rateBits float64, burstBytes, backlogBytes int) *TokenBucketShaper {
	return &TokenBucketShaper{b: newBucket(rateBits, burstBytes), fifo: NewDropTail(backlogBytes)}
}

// Enqueue implements sim.Qdisc.
func (s *TokenBucketShaper) Enqueue(p *sim.Packet, now time.Duration) bool {
	if !s.fifo.Enqueue(p, now) {
		s.Dropped++
		return false
	}
	return true
}

// Dequeue implements sim.Qdisc. A packet is released only when the
// bucket holds enough tokens for its full size.
func (s *TokenBucketShaper) Dequeue(now time.Duration) (*sim.Packet, time.Duration) {
	if s.fifo.Len() == 0 {
		return nil, 0
	}
	s.b.refill(now)
	head := s.fifo.peek()
	need := float64(head.Size)
	if s.b.tokens < need {
		return nil, s.b.timeFor(now, need)
	}
	s.b.tokens -= need
	p, _ := s.fifo.Dequeue(now)
	return p, 0
}

// Len implements sim.Qdisc.
func (s *TokenBucketShaper) Len() int { return s.fifo.Len() }

// Bytes implements sim.Qdisc.
func (s *TokenBucketShaper) Bytes() int { return s.fifo.Bytes() }

// TokenBucketPolicer drops packets arriving faster than the configured
// rate instead of queueing them (Flach et al.'s "policing"). Conforming
// packets pass into a small FIFO that absorbs serialization contention
// only.
type TokenBucketPolicer struct {
	b    bucket
	fifo *DropTail
	// Policed counts packets dropped for exceeding the rate.
	Policed int64
}

// NewTokenBucketPolicer returns a policer enforcing rateBits bits/s
// with a tokenBurst allowance.
func NewTokenBucketPolicer(rateBits float64) *TokenBucketPolicer {
	return newTokenBucketPolicer(rateBits, tokenBurst)
}

// newTokenBucketPolicer is NewTokenBucketPolicer with the burst the
// tests pick.
func newTokenBucketPolicer(rateBits float64, burstBytes int) *TokenBucketPolicer {
	return &TokenBucketPolicer{b: newBucket(rateBits, burstBytes), fifo: NewDropTail(64 * sim.MSS)}
}

// Enqueue implements sim.Qdisc: non-conforming packets are dropped
// immediately.
func (p *TokenBucketPolicer) Enqueue(pkt *sim.Packet, now time.Duration) bool {
	p.b.refill(now)
	need := float64(pkt.Size)
	if p.b.tokens < need {
		p.Policed++
		return false
	}
	p.b.tokens -= need
	return p.fifo.Enqueue(pkt, now)
}

// Dequeue implements sim.Qdisc.
func (p *TokenBucketPolicer) Dequeue(now time.Duration) (*sim.Packet, time.Duration) {
	return p.fifo.Dequeue(now)
}

// Len implements sim.Qdisc.
func (p *TokenBucketPolicer) Len() int { return p.fifo.Len() }

// Bytes implements sim.Qdisc.
func (p *TokenBucketPolicer) Bytes() int { return p.fifo.Bytes() }
