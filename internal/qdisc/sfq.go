package qdisc

import (
	"time"

	"repro/internal/sim"
)

// SFQ is stochastic fair queueing: flows are hashed into a fixed number
// of buckets that are served round-robin (via DRR). Collisions make
// fairness probabilistic, which is why it is "stochastic"; with a
// perturbed hash it approximates per-flow fair queueing at O(1) state.
type SFQ struct {
	drr *DRR
}

// sfqBuckets is the number of hash buckets.
const sfqBuckets = 128

// NewSFQ returns an SFQ of sfqBuckets hash buckets with the given total
// byte limit.
func NewSFQ(limitBytes int) *SFQ {
	s := &SFQ{}
	s.drr = NewDRR(s.classify, sim.MSS, limitBytes)
	return s
}

// classify hashes the flow with a fixed perturbation.
func (s *SFQ) classify(p *sim.Packet) int {
	h := uint32(p.FlowID)*2654435761 + 40503
	return int(h % sfqBuckets)
}

// Enqueue implements sim.Qdisc.
func (s *SFQ) Enqueue(p *sim.Packet, now time.Duration) bool { return s.drr.Enqueue(p, now) }

// Dequeue implements sim.Qdisc.
func (s *SFQ) Dequeue(now time.Duration) (*sim.Packet, time.Duration) { return s.drr.Dequeue(now) }

// Len implements sim.Qdisc.
func (s *SFQ) Len() int { return s.drr.Len() }

// Bytes implements sim.Qdisc.
func (s *SFQ) Bytes() int { return s.drr.Bytes() }
