package scenario

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

// countingSource wraps a source and counts pulls with an atomic, so
// tests can observe the dispatcher's progress from outside without a
// data race.
type countingSource struct {
	inner SpecSource
	pulls atomic.Int64
}

func (c *countingSource) Next() (Spec, bool, error) {
	sp, ok, err := c.inner.Next()
	if ok {
		c.pulls.Add(1)
	}
	return sp, ok, err
}

func (c *countingSource) Count() (int, bool) { return c.inner.Count() }

// TestSweepStreamInputOrder: yields arrive strictly in input order
// even when completion order inverts it (earlier specs sleep longer).
func TestSweepStreamInputOrder(t *testing.T) {
	var specs []Spec
	for i := 0; i < 8; i++ {
		specs = append(specs, Spec{Experiment: "test-sleep", Seed: int64(i), Flows: (8 - i) * 5})
	}
	r := &Runner{Workers: 4}
	var got []int64
	err := r.SweepStream(context.Background(), SliceSource(specs), func(res RunResult) error {
		if res.Err != "" {
			t.Fatal(res.Err)
		}
		got = append(got, res.Spec.Seed)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, seed := range got {
		if seed != int64(i) {
			t.Fatalf("yield %d carries seed %d; yields out of input order: %v", i, seed, got)
		}
	}
	if len(got) != len(specs) {
		t.Fatalf("yielded %d of %d specs", len(got), len(specs))
	}
}

// TestSweepStreamSourceError: a mid-stream source error surfaces after
// every previously pulled spec has been executed and yielded.
func TestSweepStreamSourceError(t *testing.T) {
	boom := errors.New("source torn mid-stream")
	src := &errAfterSource{n: 5, err: boom}
	r := &Runner{Workers: 2}
	var yields int
	err := r.SweepStream(context.Background(), src, func(res RunResult) error {
		if res.Err != "" {
			t.Fatalf("yield %d failed: %s", yields, res.Err)
		}
		if res.Spec.Seed != int64(yields+1) {
			t.Fatalf("yield %d carries seed %d", yields, res.Spec.Seed)
		}
		yields++
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("stream error = %v, want the source error", err)
	}
	if yields != 5 {
		t.Fatalf("%d yields before the error surfaced, want all 5 pulled specs", yields)
	}
}

// TestSweepStreamYieldError: a failing yield stops the stream, no
// further yields happen, and the yield error is returned.
func TestSweepStreamYieldError(t *testing.T) {
	var specs []Spec
	for i := 0; i < 32; i++ {
		specs = append(specs, Spec{Experiment: "test-ok", Seed: int64(i)})
	}
	stop := errors.New("sink full")
	r := &Runner{Workers: 4}
	yields := 0
	err := r.SweepStream(context.Background(), SliceSource(specs), func(res RunResult) error {
		yields++
		if yields == 3 {
			return stop
		}
		return nil
	})
	if !errors.Is(err, stop) {
		t.Fatalf("stream error = %v, want the yield error", err)
	}
	if yields != 3 {
		t.Fatalf("yield called %d times after failing on call 3", yields)
	}
}

// TestSweepStreamCancellation: cancelling the context stops the pull
// promptly — in-flight runs drain, the stream returns ctx.Err(), and
// the source is not drained to exhaustion.
func TestSweepStreamCancellation(t *testing.T) {
	const workers = 2
	var specs []Spec
	for i := 0; i < 16; i++ {
		specs = append(specs, Spec{Experiment: "test-gate", Seed: int64(i)})
	}
	src := &countingSource{inner: SliceSource(specs)}
	ctx, cancel := context.WithCancel(context.Background())
	r := &Runner{Workers: workers}

	done := make(chan error, 1)
	var yields int
	go func() {
		done <- r.SweepStream(ctx, src, func(res RunResult) error {
			yields++
			return nil
		})
	}()

	for i := 0; i < workers; i++ {
		<-testStarted
	}
	cancel()
	for i := 0; i < workers; i++ {
		testGate.release()
	}
	var err error
	select {
	case err = <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("stream did not stop after cancellation")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("stream error = %v, want context.Canceled", err)
	}
	// The pull stopped promptly: at most the in-flight window was
	// consumed, nowhere near the full 16 specs.
	pulled := int(src.pulls.Load())
	if pulled >= len(specs) {
		t.Fatalf("source drained to exhaustion (%d specs) after cancellation", pulled)
	}
	if yields > pulled {
		t.Fatalf("%d yields from %d pulled specs", yields, pulled)
	}
	// Drain stragglers racing the cancellation.
	for {
		select {
		case <-testStarted:
			testGate.release()
		case <-time.After(50 * time.Millisecond):
			return
		}
	}
}

// TestSweepStreamUnknownCountProgress: a count-less source still gets
// exactly one start/finish event pair per run, with TotalKnown false
// and no ETA on every aggregate.
func TestSweepStreamUnknownCountProgress(t *testing.T) {
	var specs []Spec
	for i := 0; i < 6; i++ {
		specs = append(specs, Spec{Experiment: "test-ok", Seed: int64(i)})
	}
	var events []ProgressEvent
	r := &Runner{
		Workers:      3,
		ProgressFunc: func(ev ProgressEvent) { events = append(events, ev) },
	}
	err := r.SweepStream(context.Background(), hideCount{SliceSource(specs)}, func(RunResult) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	finishes := 0
	for _, ev := range events {
		if ev.Sweep.TotalKnown || ev.Sweep.Total != 0 {
			t.Fatalf("unknown-count sweep reports total %d (known=%v)", ev.Sweep.Total, ev.Sweep.TotalKnown)
		}
		if ev.Sweep.ETA != 0 {
			t.Fatalf("unknown-count sweep computed an ETA: %v", ev.Sweep.ETA)
		}
		if ev.Kind == RunFinished {
			finishes++
		}
	}
	if finishes != len(specs) {
		t.Fatalf("%d finish events, want %d", finishes, len(specs))
	}
}

// TestSweepStreamBoundedBuffering pins the O(workers) in-flight
// contract: with gated runs occupying every worker, the dispatcher may
// pull only the one spec it holds while blocked on the jobs send. The
// ordering window bounds the results held behind a slow head, not the
// specs pulled.
func TestSweepStreamBoundedBuffering(t *testing.T) {
	const workers = 2
	var specs []Spec
	for i := 0; i < 64; i++ {
		specs = append(specs, Spec{Experiment: "test-gate", Seed: int64(i)})
	}
	src := &countingSource{inner: SliceSource(specs)}
	r := &Runner{Workers: workers}
	done := make(chan struct{})
	go func() {
		defer close(done)
		r.SweepStream(context.Background(), src, func(RunResult) error { return nil })
	}()
	for i := 0; i < workers; i++ {
		<-testStarted
	}
	// Workers are all blocked; give the dispatcher time to fill its
	// window, then check the pull stalled at O(workers), not O(specs).
	time.Sleep(100 * time.Millisecond)
	// In flight: `workers` running + 1 the dispatcher holds while
	// blocked on the jobs send.
	if pulled := int(src.pulls.Load()); pulled > workers+1 {
		t.Fatalf("dispatcher pulled %d specs with all workers blocked; in-flight window is not O(workers)", pulled)
	}
	// Seeds are spec indices: each release must open run i, the head of
	// the ordering window — releasing any other run can fill the window
	// behind a head that then never gets its turn.
	for i := 0; i < len(specs); i++ {
		if got := testGate.release(); got != int64(i) {
			t.Fatalf("release %d opened run %d, not the head of line", i, got)
		}
		if i < len(specs)-workers {
			<-testStarted
		}
	}
	<-done
}

// TestSweepStreamSlowHeadDoesNotIdlePool: while the first spec runs,
// the other worker must go on to finish more specs behind it than
// there are workers, holding their results for the yield that follows
// the head's.
func TestSweepStreamSlowHeadDoesNotIdlePool(t *testing.T) {
	const workers, behind = 2, 4 * 2
	specs := []Spec{{Experiment: "test-gate", Seed: 0}}
	for i := 1; i <= behind; i++ {
		specs = append(specs, Spec{Experiment: "test-ok", Seed: int64(i)})
	}
	finished := make(chan struct{}, len(specs))
	r := &Runner{Workers: workers, ProgressFunc: func(ev ProgressEvent) {
		if ev.Kind == RunFinished {
			finished <- struct{}{}
		}
	}}
	var got []int64
	done := make(chan error, 1)
	go func() {
		done <- r.SweepStream(context.Background(), SliceSource(specs), func(res RunResult) error {
			got = append(got, res.Spec.Seed)
			return nil
		})
	}()
	<-testStarted
	timeout := time.After(10 * time.Second)
	for i := 0; i < behind; i++ {
		select {
		case <-finished:
		case <-timeout:
			testGate.release()
			<-done
			t.Fatalf("%d of the %d specs behind a running head finished; the pool idled behind it", i, behind)
		}
	}
	if seed := testGate.release(); seed != 0 {
		t.Fatalf("released run %d, want the head", seed)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	for i, seed := range got {
		if seed != int64(i) {
			t.Fatalf("yields out of input order: %v", got)
		}
	}
	if len(got) != len(specs) {
		t.Fatalf("yielded %d of %d specs", len(got), len(specs))
	}
}

// TestSweepEquivalence: the rebased Sweep still fills every slot on a
// mixed success/failure sweep and serializes identically to a
// per-spec Run loop.
func TestSweepEquivalence(t *testing.T) {
	specs := mixedSpecs()
	r := &Runner{Workers: 3}
	results, err := r.Sweep(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(specs) {
		t.Fatalf("%d results for %d specs", len(results), len(specs))
	}
	for i, res := range results {
		if res.Hash != specs[i].Hash() {
			t.Fatalf("slot %d hash mismatch", i)
		}
		single := (&Runner{}).Run(context.Background(), specs[i])
		if fmt.Sprintf("%s", single.Result) != fmt.Sprintf("%s", res.Result) {
			t.Fatalf("slot %d: sweep result %s, single run %s", i, res.Result, single.Result)
		}
	}
}
