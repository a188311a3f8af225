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
	drr     *DRR
	buckets int
	perturb int
}

// NewSFQ returns an SFQ with the given number of hash buckets and total
// byte limit. perturb seeds the hash so tests can exercise collisions
// deterministically.
func NewSFQ(buckets, limitBytes, perturb int) *SFQ {
	if buckets <= 0 {
		buckets = 128
	}
	s := &SFQ{buckets: buckets, perturb: perturb}
	s.drr = NewDRR(s.classify, sim.MSS, limitBytes)
	return s
}

func (s *SFQ) classify(p *sim.Packet) int {
	h := uint32(p.FlowID)*2654435761 + uint32(s.perturb)*40503
	return int(h % uint32(s.buckets))
}

// Enqueue implements sim.Qdisc.
func (s *SFQ) Enqueue(p *sim.Packet, now time.Duration) bool { return s.drr.Enqueue(p, now) }

// Dequeue implements sim.Qdisc.
func (s *SFQ) Dequeue(now time.Duration) (*sim.Packet, time.Duration) { return s.drr.Dequeue(now) }

// Len implements sim.Qdisc.
func (s *SFQ) Len() int { return s.drr.Len() }

// Bytes implements sim.Qdisc.
func (s *SFQ) Bytes() int { return s.drr.Bytes() }
