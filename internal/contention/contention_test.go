package contention

import (
	"math"
	"testing"
	"time"

	"repro/internal/qdisc"
	"repro/internal/sim"
)

func link(rate float64) *sim.Link {
	eng := &sim.Engine{}
	return sim.NewLink(eng, "l", rate, 10*time.Millisecond, qdisc.NewDropTail(1<<20))
}

func TestPrerequisitesDisjointPaths(t *testing.T) {
	l1, l2 := link(10e6), link(10e6)
	a := &FlowInfo{ID: 1, Path: []*sim.Link{l1}}
	b := &FlowInfo{ID: 2, Path: []*sim.Link{l2}}
	shared, bott, same := Prerequisites(a, b)
	if shared || bott || same {
		t.Error("disjoint paths should satisfy nothing")
	}
}

func TestPrerequisitesSharedButUnloaded(t *testing.T) {
	l := link(100e6)
	// Two flows whose upstream links bound them to loads that together
	// fit the link: shared, not bottlenecked.
	a := &FlowInfo{ID: 1, Path: []*sim.Link{link(20e6), l}}
	b := &FlowInfo{ID: 2, Path: []*sim.Link{link(30e6), l}}
	shared, bott, same := Prerequisites(a, b)
	if !shared {
		t.Error("flows share the link")
	}
	if bott || same {
		t.Error("an unloaded link is not a bottleneck")
	}
}

func TestPrerequisitesBottleneckSameQueue(t *testing.T) {
	l := link(10e6)
	// Backlogged flows (unbounded offered load) on one FIFO.
	a := &FlowInfo{ID: 1, Path: []*sim.Link{l}}
	b := &FlowInfo{ID: 2, Path: []*sim.Link{l}}
	shared, bott, same := Prerequisites(a, b)
	if !shared || !bott || !same {
		t.Errorf("got %v/%v/%v, want all true", shared, bott, same)
	}
}

func TestScoreMetrics(t *testing.T) {
	var s Score
	// 3 TP, 1 FP, 1 FN, 5 TN.
	for i := 0; i < 3; i++ {
		s.Add(true, true)
	}
	s.Add(false, true)
	s.Add(true, false)
	for i := 0; i < 5; i++ {
		s.Add(false, false)
	}
	if s.TP != 3 || s.FP != 1 || s.FN != 1 || s.TN != 5 {
		t.Fatalf("score = %+v", s)
	}
	if p := s.Precision(); p != 0.75 {
		t.Errorf("precision = %v", p)
	}
	if r := s.Recall(); r != 0.75 {
		t.Errorf("recall = %v", r)
	}
	if a := s.Accuracy(); a != 0.8 {
		t.Errorf("accuracy = %v", a)
	}
	if f := s.F1(); f != 0.75 {
		t.Errorf("f1 = %v", f)
	}
	var zero Score
	if zero.Precision() != 0 || zero.Recall() != 0 || zero.Accuracy() != 0 || zero.F1() != 0 {
		t.Error("empty score should be all zeros")
	}
}

func TestScoreZeroDenominators(t *testing.T) {
	// Each metric's denominator can be zero independently of the
	// others; every such case must return a finite 0, never NaN.
	cases := []struct {
		name                       string
		s                          Score
		precision, recall, f1, acc float64
	}{
		{"empty", Score{}, 0, 0, 0, 0},
		// No positive predictions: precision undefined, recall fine.
		{"all-fn", Score{FN: 4}, 0, 0, 0, 0},
		// No positive truths: recall undefined, precision fine.
		{"all-fp", Score{FP: 4}, 0, 0, 0, 0},
		// Only correct negatives: precision and recall both undefined,
		// so F1's p+r denominator is zero while accuracy is perfect.
		{"all-tn", Score{TN: 4}, 0, 0, 0, 1},
		// Only correct positives: everything defined and perfect.
		{"all-tp", Score{TP: 4}, 1, 1, 1, 1},
		// Mixed: precision defined, recall undefined.
		{"fp-and-tn", Score{FP: 1, TN: 3}, 0, 0, 0, 0.75},
		// Mixed: recall defined, precision undefined.
		{"fn-and-tn", Score{FN: 1, TN: 3}, 0, 0, 0, 0.75},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := []struct {
				metric  string
				v, want float64
			}{
				{"precision", tc.s.Precision(), tc.precision},
				{"recall", tc.s.Recall(), tc.recall},
				{"f1", tc.s.F1(), tc.f1},
				{"accuracy", tc.s.Accuracy(), tc.acc},
			}
			for _, g := range got {
				if math.IsNaN(g.v) || math.IsInf(g.v, 0) {
					t.Errorf("%s = %v, want finite", g.metric, g.v)
				}
				if g.v != g.want {
					t.Errorf("%s = %v, want %v", g.metric, g.v, g.want)
				}
			}
		})
	}
}

func TestOfferedLoadClippedByUpstreamLinks(t *testing.T) {
	// Two backlogged flows behind separate 50 Mbit/s access links,
	// sharing a 1 Gbit/s core: the core receives at most 100 Mbit/s,
	// so it is not a bottleneck despite the unbounded offered loads.
	accessA, accessB := link(50e6), link(50e6)
	coreL := link(1e9)
	a := &FlowInfo{ID: 1, Path: []*sim.Link{accessA, coreL}}
	b := &FlowInfo{ID: 2, Path: []*sim.Link{accessB, coreL}}
	shared, bott, same := Prerequisites(a, b)
	if !shared {
		t.Error("core is shared")
	}
	if bott || same {
		t.Error("provisioned core must not count as a bottleneck")
	}
	// Same flows behind ONE access link: contention at the access.
	c := &FlowInfo{ID: 3, Path: []*sim.Link{accessA, coreL}}
	if _, _, same := Prerequisites(a, c); !same {
		t.Error("same-access backlogged flows contend")
	}
}

func TestMultiHopSharedSegment(t *testing.T) {
	shared := link(10e6)
	l1, l2 := link(100e6), link(100e6)
	a := &FlowInfo{ID: 1, Path: []*sim.Link{l1, shared}}
	b := &FlowInfo{ID: 2, Path: []*sim.Link{shared, l2}}
	s, bott, same := Prerequisites(a, b)
	if !s || !bott || !same {
		t.Errorf("multi-hop shared segment: %v/%v/%v", s, bott, same)
	}
}
