package traffic

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/cca"
	"repro/internal/qdisc"
	"repro/internal/sim"
	"repro/internal/transport"
)

// churnCell builds one user's churn process on a private little
// network and runs it for the given duration.
func churnCell(t *testing.T, seed int64, dur time.Duration) *Churn {
	t.Helper()
	eng := &sim.Engine{}
	link := sim.NewLink(eng, "l", 10e6, 5*time.Millisecond, qdisc.NewDropTail(64*1500))
	c := NewChurn(eng, ChurnConfig{
		MeanThink:   200 * time.Millisecond,
		LongFrac:    0.1,
		NewCC:       func() transport.CCA { return cca.NewRenoCC() },
		Path:        []*sim.Link{link},
		ReturnDelay: 5 * time.Millisecond,
		UserID:      1,
		BaseFlowID:  100,
		Rand:        rand.New(rand.NewSource(seed)),
	})
	eng.Run(dur)
	return c
}

// TestChurnDeterministic: the same seed must replay the same arrival
// sequence, completions, and completion times exactly.
func TestChurnDeterministic(t *testing.T) {
	a := churnCell(t, 42, 20*time.Second)
	b := churnCell(t, 42, 20*time.Second)
	if a.Started != b.Started || a.Completed != b.Completed || a.LongStarted != b.LongStarted {
		t.Fatalf("counters diverged: %d/%d/%d vs %d/%d/%d",
			a.Started, a.Completed, a.LongStarted, b.Started, b.Completed, b.LongStarted)
	}
	if a.AckedBytes() != b.AckedBytes() {
		t.Errorf("acked bytes diverged: %d vs %d", a.AckedBytes(), b.AckedBytes())
	}
	if len(a.ShortFCTs) != len(b.ShortFCTs) {
		t.Fatalf("FCT count diverged: %d vs %d", len(a.ShortFCTs), len(b.ShortFCTs))
	}
	for i := range a.ShortFCTs {
		if a.ShortFCTs[i] != b.ShortFCTs[i] {
			t.Fatalf("FCT %d diverged: %v vs %v", i, a.ShortFCTs[i], b.ShortFCTs[i])
		}
	}
	c := churnCell(t, 43, 20*time.Second)
	if a.Started == c.Started && a.AckedBytes() == c.AckedBytes() {
		t.Errorf("different seeds produced identical runs (started %d, bytes %d)", a.Started, a.AckedBytes())
	}
}

// TestChurnClosedLoop: at most one transfer in flight, every completed
// short flow has a positive FCT, and progress is real.
func TestChurnClosedLoop(t *testing.T) {
	c := churnCell(t, 7, 20*time.Second)
	if c.Started == 0 {
		t.Fatal("no arrivals in 20s with 200ms think time")
	}
	if got := c.Started - c.Completed; got != 0 && got != 1 {
		t.Errorf("closed loop violated: %d started, %d completed (gap %d, want 0 or 1)",
			c.Started, c.Completed, got)
	}
	if (c.Started-c.Completed == 1) != c.Active() {
		t.Errorf("Active()=%v inconsistent with %d started, %d completed",
			c.Active(), c.Started, c.Completed)
	}
	if len(c.ShortFCTs) > c.Completed {
		t.Errorf("%d short FCTs recorded but only %d completions", len(c.ShortFCTs), c.Completed)
	}
	for i, fct := range c.ShortFCTs {
		if fct <= 0 {
			t.Errorf("FCT %d: %v, want > 0", i, fct)
		}
	}
	if c.AckedBytes() <= 0 {
		t.Error("no bytes delivered")
	}
}
