package faults

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/sim"
)

// fifo is a minimal unbounded queue for driving injectors directly.
type fifo struct {
	q     []*sim.Packet
	bytes int
}

func (f *fifo) Enqueue(p *sim.Packet, _ time.Duration) bool {
	f.q = append(f.q, p)
	f.bytes += p.Size
	return true
}
func (f *fifo) Dequeue(_ time.Duration) (*sim.Packet, time.Duration) {
	if len(f.q) == 0 {
		return nil, 0
	}
	p := f.q[0]
	f.q = f.q[1:]
	f.bytes -= p.Size
	return p, 0
}
func (f *fifo) Len() int   { return len(f.q) }
func (f *fifo) Bytes() int { return f.bytes }

func pkt(seq int64) *sim.Packet { return &sim.Packet{Seq: seq, Size: sim.MSS} }

func TestLossRateAndDeterminism(t *testing.T) {
	const n = 20000
	drops := func(seed int64) []bool {
		l := NewLoss(&fifo{}, 0.1, rand.New(rand.NewSource(seed)))
		out := make([]bool, n)
		for i := 0; i < n; i++ {
			out[i] = !l.Enqueue(pkt(int64(i)), 0)
		}
		if int64(countTrue(out)) != l.Dropped {
			t.Fatalf("Dropped = %d, observed %d", l.Dropped, countTrue(out))
		}
		return out
	}
	a, b := drops(42), drops(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at packet %d", i)
		}
	}
	rate := float64(countTrue(a)) / n
	if rate < 0.08 || rate > 0.12 {
		t.Errorf("loss rate = %.4f, want ~0.10", rate)
	}
}

func countTrue(bs []bool) int {
	n := 0
	for _, b := range bs {
		if b {
			n++
		}
	}
	return n
}

func TestGilbertElliottBurstiness(t *testing.T) {
	cfg := GESpec{PGoodBad: 0.02, PBadGood: 0.25, LossBad: 0.5}
	g := NewGilbertElliott(&fifo{}, cfg, rand.New(rand.NewSource(7)))
	const n = 50000
	var dropped, burstRuns, runLen int
	var runs []int
	for i := 0; i < n; i++ {
		if !g.Enqueue(pkt(int64(i)), 0) {
			dropped++
			runLen++
		} else if runLen > 0 {
			runs = append(runs, runLen)
			runLen = 0
		}
	}
	rate := float64(dropped) / n
	// Stationary model: in the bad state PGoodBad/(PGoodBad+PBadGood) of
	// the time, dropping LossBad there and nothing in the good state.
	want := cfg.PGoodBad / (cfg.PGoodBad + cfg.PBadGood) * cfg.LossBad
	if math.Abs(rate-want) > 0.02 {
		t.Errorf("loss rate = %.4f, stationary model says %.4f", rate, want)
	}
	if g.Bursts == 0 {
		t.Fatal("no bad-state transitions")
	}
	// Burst loss must produce multi-packet drop runs far more often
	// than i.i.d. loss at the same rate would (P(run>=2) = rate).
	for _, r := range runs {
		if r >= 2 {
			burstRuns++
		}
	}
	if frac := float64(burstRuns) / float64(len(runs)); frac < 3*rate {
		t.Errorf("multi-packet drop runs = %.3f of runs; too memoryless for GE", frac)
	}
}

func TestDuplicator(t *testing.T) {
	inner := &fifo{}
	d := NewDuplicator(inner, 0.2, rand.New(rand.NewSource(3)))
	const n = 5000
	for i := 0; i < n; i++ {
		if !d.Enqueue(pkt(int64(i)), 0) {
			t.Fatal("duplicator must not drop")
		}
	}
	if d.Duplicated == 0 {
		t.Fatal("no duplicates")
	}
	if got := int64(inner.Len()); got != n+d.Duplicated {
		t.Errorf("inner holds %d, want %d originals + %d dups", got, n, d.Duplicated)
	}
	frac := float64(d.Duplicated) / n
	if frac < 0.15 || frac > 0.25 {
		t.Errorf("dup rate = %.3f, want ~0.2", frac)
	}
	// The copy is a distinct allocation with the same sequence.
	seen := make(map[int64]int)
	for {
		p, _ := d.Dequeue(0)
		if p == nil {
			break
		}
		seen[p.Seq]++
	}
	dups := 0
	for _, c := range seen {
		if c == 2 {
			dups++
		}
	}
	if int64(dups) != d.Duplicated {
		t.Errorf("%d seqs seen twice, want %d", dups, d.Duplicated)
	}
}

func TestJitterHoldsAndPreservesOrder(t *testing.T) {
	inner := &fifo{}
	j := NewJitter(inner, 10*time.Millisecond, rand.New(rand.NewSource(1)))
	now := time.Duration(0)
	for i := int64(0); i < 50; i++ {
		j.Enqueue(pkt(i), now)
	}
	var got []int64
	for len(got) < 50 {
		p, ready := j.Dequeue(now)
		if p == nil {
			if ready <= now {
				t.Fatalf("stalled: nil packet with ready=%v at now=%v (held %d)", ready, now, j.Len())
			}
			now = ready
			continue
		}
		got = append(got, p.Seq)
	}
	for i := range got {
		if got[i] != int64(i) {
			t.Fatalf("jitter reordered: position %d holds seq %d", i, got[i])
		}
	}
	if now == 0 {
		t.Error("jitter never delayed anything")
	}
	if j.Len() != 0 || j.Bytes() != 0 {
		t.Errorf("residual Len=%d Bytes=%d", j.Len(), j.Bytes())
	}
}

func TestReordererReordersWithoutLoss(t *testing.T) {
	inner := &fifo{}
	r := NewReorderer(inner, 0.2, 5*time.Millisecond, rand.New(rand.NewSource(9)))
	now := time.Duration(0)
	const n = 200
	for i := int64(0); i < n; i++ {
		if !r.Enqueue(pkt(i), now) {
			t.Fatal("reorderer must not drop")
		}
		now += time.Millisecond
	}
	if r.Reordered == 0 {
		t.Fatal("nothing held back")
	}
	var got []int64
	for len(got) < n {
		p, ready := r.Dequeue(now)
		if p == nil {
			if ready <= now {
				t.Fatalf("stalled with %d packets held", r.Len())
			}
			now = ready
			continue
		}
		got = append(got, p.Seq)
	}
	if r.Len() != 0 || r.Bytes() != 0 {
		t.Errorf("residual Len=%d Bytes=%d", r.Len(), r.Bytes())
	}
	inversions := 0
	seen := make(map[int64]bool)
	for i := 1; i < len(got); i++ {
		if got[i] < got[i-1] {
			inversions++
		}
	}
	for _, s := range got {
		seen[s] = true
	}
	if len(seen) != n {
		t.Errorf("lost packets: %d unique of %d", len(seen), n)
	}
	if inversions == 0 {
		t.Error("no reordering observed")
	}
}

func TestOutageSchedule(t *testing.T) {
	o := Config{Outages: []WindowSpec{{StartS: 1, EndS: 3}}}.Build(new(sim.Engine), &fifo{}, 1).Outage
	o.Enqueue(pkt(1), 0)
	if p, _ := o.Dequeue(500 * time.Millisecond); p == nil {
		t.Fatal("link should be up before the window")
	}
	o.Enqueue(pkt(2), time.Second)
	p, until := o.Dequeue(2 * time.Second)
	if p != nil {
		t.Fatal("dequeued during outage")
	}
	if until != 3*time.Second {
		t.Errorf("ready = %v, want outage end 3s", until)
	}
	if p, _ := o.Dequeue(3 * time.Second); p == nil || p.Seq != 2 {
		t.Error("packet not released after outage")
	}

	// Periodic: up 8s, down 2s.
	po := NewPeriodicOutage(&fifo{}, 10*time.Second, 2*time.Second)
	cases := []struct {
		at    time.Duration
		down  bool
		until time.Duration
	}{
		{0, false, 0},
		{7 * time.Second, false, 0},
		{8 * time.Second, true, 10 * time.Second},
		{9999 * time.Millisecond, true, 10 * time.Second},
		{10 * time.Second, false, 0},
		{18500 * time.Millisecond, true, 20 * time.Second},
	}
	for _, c := range cases {
		down, until := po.DownAt(c.at)
		if down != c.down || (down && until != c.until) {
			t.Errorf("DownAt(%v) = %v/%v, want %v/%v", c.at, down, until, c.down, c.until)
		}
	}

	// Degenerate periodic config disables the schedule.
	if d, _ := NewPeriodicOutage(&fifo{}, time.Second, time.Second).DownAt(0); d {
		t.Error("down >= period should disable the schedule")
	}
}

func TestOutageDropDuring(t *testing.T) {
	o := Config{Outages: []WindowSpec{{StartS: 0, EndS: 1}}, DropDuringOutages: true}.Build(new(sim.Engine), &fifo{}, 1).Outage
	if o.Enqueue(pkt(1), 500*time.Millisecond) {
		t.Error("enqueue during blackhole outage should drop")
	}
	if o.Suppressed != 1 {
		t.Errorf("Suppressed = %d", o.Suppressed)
	}
	if !o.Enqueue(pkt(2), 2*time.Second) {
		t.Error("enqueue after outage should succeed")
	}
}

// TestOscillators pins the one rate oscillation that runs: the inline
// Config's sine.
func TestOscillators(t *testing.T) {
	sine := Config{OscAmp: 0.5, OscPeriodS: 4}.RateFunc(10e6)
	if got := sine(time.Second); math.Abs(got-15e6) > 1 {
		t.Errorf("sine peak = %v, want 15e6", got)
	}
	if got := sine(0); math.Abs(got-10e6) > 1 {
		t.Errorf("sine mean = %v, want 10e6", got)
	}
	// The phase offset shifts the timing: a quarter period in, t=0 is the peak.
	if got := (Config{OscAmp: 0.5, OscPeriodS: 4, OscPhase: 0.25}).RateFunc(10e6)(0); math.Abs(got-15e6) > 1 {
		t.Errorf("phase-shifted peak = %v, want 15e6", got)
	}
	if (Config{OscAmp: 0.5}).RateFunc(10e6) != nil {
		t.Error("no period: oscillation should be disabled")
	}
}

func TestProfileRegistry(t *testing.T) {
	names := Names()
	if len(names) < 4 {
		t.Fatalf("registry too small: %v", names)
	}
	for _, n := range names {
		p, err := Lookup(n)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Validate(); err != nil {
			t.Errorf("profile %q: %v", n, err)
		}
		if Describe(n) == "" {
			t.Errorf("profile %q has no description", n)
		}
		ch := p.Build(new(sim.Engine), &fifo{}, 1)
		if ch.Qdisc() == nil {
			t.Fatalf("profile %q built nil qdisc", n)
		}
	}
	if _, err := Lookup("no-such-profile"); err == nil {
		t.Error("expected error for unknown profile")
	}
	// clean is the identity.
	clean, _ := Lookup("clean")
	inner := &fifo{}
	if q := clean.Build(new(sim.Engine), inner, 1).Qdisc(); q != sim.Qdisc(inner) {
		t.Error("clean profile should wrap nothing")
	}
}

func TestProfileBuildOrderAndChain(t *testing.T) {
	p := Config{
		LossProb:       0.01,
		GE:             &GESpec{PGoodBad: 0.01},
		DupProb:        0.01,
		ReorderProb:    0.01,
		ReorderDelayMs: 1,
		JitterMs:       1,
		FlapPeriodS:    10,
		FlapDownS:      1,
	}
	ch := p.Build(new(sim.Engine), &fifo{}, 5)
	if ch.Loss == nil || ch.GE == nil || ch.Dup == nil || ch.Reorder == nil ||
		ch.Jitter == nil || ch.Outage == nil {
		t.Fatalf("chain missing stages: %+v", ch)
	}
	if ch.Qdisc() != sim.Qdisc(ch.Loss) {
		t.Error("loss should be the outermost stage")
	}
	if ch.Loss.Dropped+ch.GE.Dropped+ch.Outage.Suppressed != 0 {
		t.Error("no traffic yet, drops should be zero")
	}
}
