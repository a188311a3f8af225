package qdisc

import "repro/internal/sim"

// sfqBuckets is the number of hash buckets.
const sfqBuckets = 128

// NewSFQ returns stochastic fair queueing with the given total byte
// limit: flows are hashed into sfqBuckets buckets that a DRR serves
// round-robin. Collisions make fairness probabilistic, which is why it
// is "stochastic"; with a perturbed hash it approximates per-flow fair
// queueing at O(1) state.
func NewSFQ(limitBytes int) *DRR {
	return NewDRR(sfqClassify, sim.MSS, limitBytes)
}

// sfqClassify hashes the flow with a fixed perturbation.
func sfqClassify(p *sim.Packet) int {
	h := uint32(p.FlowID)*2654435761 + 40503
	return int(h % sfqBuckets)
}
