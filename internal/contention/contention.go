// Package contention provides ground truth about CCA contention in
// emulated scenarios. Section 2 of the paper gives three prerequisites
// for contention between two flows: they must (i) share a path
// segment, (ii) experience a bottleneck in that segment, and (iii) use
// the same queue at the bottleneck link. This package checks those
// prerequisites over a scenario's topology and offered loads, and
// scores a binary classifier against that ground truth.
//
// The oracle is what the paper's proposed measurement study cannot
// have on the real Internet — which is exactly why the emulator
// carries it: it lets us score the elasticity probe's verdicts
// (precision/recall) before trusting them in the wild.
package contention

import (
	"math"

	"repro/internal/sim"
)

// FlowInfo describes one persistently backlogged flow's placement for
// prerequisite checking. Every link on a path has one queue that all
// flows reaching it share.
type FlowInfo struct {
	ID int
	// Path is the flow's forward path.
	Path []*sim.Link
}

// offeredAt returns the flow's effective offered load arriving at
// Path[i]: unbounded at the source, clipped by every upstream link's
// rate. A backlogged flow behind a 50 Mbit/s access link can
// offer at most 50 Mbit/s to a downstream peering link — which is why
// provisioned core links are not bottlenecks for it (§2.2).
func (f *FlowInfo) offeredAt(i int) float64 {
	rate := math.Inf(1)
	for j := 0; j < i && j < len(f.Path); j++ {
		if r := f.Path[j].Rate; r < rate {
			rate = r
		}
	}
	return rate
}

// Prerequisites reports whether flows a and b satisfy the paper's
// three contention prerequisites: a shared link that is a bottleneck
// for their combined (upstream-clipped) offered load, in the same
// queue. A link's one queue is shared, so sameQueue holds exactly when
// some shared link is a bottleneck; sameQueue is the verdict that the
// flows contend.
func Prerequisites(a, b *FlowInfo) (shared, bottlenecked, sameQueue bool) {
	for ia, la := range a.Path {
		for ib, lb := range b.Path {
			if la != lb {
				continue
			}
			shared = true
			if a.offeredAt(ia)+b.offeredAt(ib) > la.Rate {
				return true, true, true
			}
		}
	}
	return
}

// Score tallies a binary classifier (e.g. the elasticity probe)
// against ground truth.
type Score struct {
	TP, FP, TN, FN int
}

// Add records one (truth, predicted) pair.
func (s *Score) Add(truth, predicted bool) {
	switch {
	case truth && predicted:
		s.TP++
	case truth && !predicted:
		s.FN++
	case !truth && predicted:
		s.FP++
	default:
		s.TN++
	}
}

// Precision returns TP/(TP+FP) (0 when undefined).
func (s Score) Precision() float64 {
	d := s.TP + s.FP
	if d == 0 {
		return 0
	}
	return float64(s.TP) / float64(d)
}

// Recall returns TP/(TP+FN) (0 when undefined).
func (s Score) Recall() float64 {
	d := s.TP + s.FN
	if d == 0 {
		return 0
	}
	return float64(s.TP) / float64(d)
}

// Accuracy returns (TP+TN)/total (0 when empty).
func (s Score) Accuracy() float64 {
	d := s.TP + s.FP + s.TN + s.FN
	if d == 0 {
		return 0
	}
	return float64(s.TP+s.TN) / float64(d)
}

// F1 returns the harmonic mean of precision and recall.
func (s Score) F1() float64 {
	p, r := s.Precision(), s.Recall()
	if p+r == 0 {
		return 0
	}
	return 2 * p * r / (p + r)
}
