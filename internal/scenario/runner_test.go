package scenario

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
)

// The runner tests register tiny synthetic experiments (prefixed
// "test-") so they exercise the pool, cache, and error paths without
// paying for simulations. The real-experiment determinism coverage
// lives in determinism_test.go.

var (
	testRunCount atomic.Int64
	testGate     seedGate
	testStarted  = make(chan struct{}, 64)
)

// seedGate holds test-gate runs until the test releases them, lowest
// seed first. The sweep yields in input order behind a bounded window,
// so a release that could land on any waiting run can finish runs
// behind the head until the window is full while the head still waits:
// the sweep then starts nothing new and a test waiting for the next
// start never releases the head.
type seedGate struct {
	mu      sync.Mutex
	waiting []gatedRun
}

type gatedRun struct {
	seed int64
	open chan struct{}
}

// enter registers a run; the run announces itself on testStarted only
// afterwards, so a release that follows the announcement finds it.
func (g *seedGate) enter(seed int64) <-chan struct{} {
	open := make(chan struct{})
	g.mu.Lock()
	g.waiting = append(g.waiting, gatedRun{seed, open})
	g.mu.Unlock()
	return open
}

// release lets the waiting run with the lowest seed go and returns
// that seed.
func (g *seedGate) release() int64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	if len(g.waiting) == 0 {
		panic("seedGate: release with no gated run waiting")
	}
	head := 0
	for i, w := range g.waiting {
		if w.seed < g.waiting[head].seed {
			head = i
		}
	}
	seed := g.waiting[head].seed
	close(g.waiting[head].open)
	g.waiting = append(g.waiting[:head], g.waiting[head+1:]...)
	return seed
}

type testPayload struct {
	Seed int64 `json:"seed"`
}

func init() {
	Register(Experiment{
		Name:        "test-ok",
		Description: "test: returns its seed",
		Run: func(ctx context.Context, sp Spec, sc *obs.Scope) (any, error) {
			return testPayload{Seed: sp.Seed}, nil
		},
	})
	Register(Experiment{
		Name:        "test-fail",
		Description: "test: always errors",
		Run: func(ctx context.Context, sp Spec, sc *obs.Scope) (any, error) {
			return nil, errors.New("synthetic failure")
		},
	})
	Register(Experiment{
		Name:        "test-sleep",
		Description: "test: sleeps Flows milliseconds, returns its seed",
		Run: func(ctx context.Context, sp Spec, sc *obs.Scope) (any, error) {
			time.Sleep(time.Duration(sp.Flows) * time.Millisecond)
			return testPayload{Seed: sp.Seed}, nil
		},
	})
	Register(Experiment{
		Name:        "test-count",
		Description: "test: counts executions",
		Run: func(ctx context.Context, sp Spec, sc *obs.Scope) (any, error) {
			testRunCount.Add(1)
			return testPayload{Seed: sp.Seed}, nil
		},
	})
	Register(Experiment{
		Name:        "test-gate",
		Description: "test: signals start, blocks until released",
		Run: func(ctx context.Context, sp Spec, sc *obs.Scope) (any, error) {
			open := testGate.enter(sp.Seed)
			testStarted <- struct{}{}
			<-open
			return testPayload{Seed: sp.Seed}, nil
		},
	})
}

func TestSweepStableOrdering(t *testing.T) {
	// Earlier specs sleep longer, so completion order inverts input
	// order; results must still come back in input order.
	var specs []Spec
	for i := 0; i < 8; i++ {
		specs = append(specs, Spec{Experiment: "test-sleep", Seed: int64(i), Flows: (8 - i) * 5})
	}
	r := &Runner{Workers: 4}
	results, err := r.Sweep(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range results {
		if res.Spec.Seed != int64(i) {
			t.Fatalf("slot %d holds spec seed %d", i, res.Spec.Seed)
		}
		want := fmt.Sprintf(`{"seed":%d}`, i)
		if string(res.Result) != want {
			t.Fatalf("slot %d result %s, want %s", i, res.Result, want)
		}
	}
}

func TestSweepFailureIsolation(t *testing.T) {
	specs := []Spec{
		{Experiment: "test-ok", Seed: 1},
		{Experiment: "test-fail", Seed: 2},
		{Experiment: "no-such-experiment", Seed: 3},
		{Experiment: "test-ok", Seed: 4},
	}
	r := &Runner{Workers: 2}
	results, err := r.Sweep(context.Background(), specs)
	if err != nil {
		t.Fatalf("sweep with failing runs returned %v; failures belong in slots", err)
	}
	if results[0].Err != "" || results[3].Err != "" {
		t.Fatalf("healthy runs poisoned: %+v", results)
	}
	if results[1].Err == "" || results[2].Err == "" {
		t.Fatalf("failures not recorded: %+v", results)
	}
	if results[1].Result != nil || results[2].Result != nil {
		t.Fatalf("failed runs carry results: %+v", results)
	}
}

func TestSweepCancellation(t *testing.T) {
	const workers = 2
	var specs []Spec
	for i := 0; i < 8; i++ {
		specs = append(specs, Spec{Experiment: "test-gate", Seed: int64(i)})
	}
	ctx, cancel := context.WithCancel(context.Background())
	r := &Runner{Workers: workers}

	done := make(chan struct{})
	var results []RunResult
	var sweepErr error
	go func() {
		results, sweepErr = r.Sweep(ctx, specs)
		close(done)
	}()

	// Wait for the pool to fill, cancel, then release the in-flight
	// runs; the sweep must finish promptly without starting the rest.
	for i := 0; i < workers; i++ {
		<-testStarted
	}
	cancel()
	for i := 0; i < workers; i++ {
		testGate.release()
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("sweep did not stop after cancellation")
	}
	if !errors.Is(sweepErr, context.Canceled) {
		t.Fatalf("sweep error = %v, want context.Canceled", sweepErr)
	}
	finished, cancelled := 0, 0
	for _, res := range results {
		if res.Err == "" {
			finished++
		} else {
			cancelled++
		}
	}
	if finished > workers+1 {
		t.Fatalf("%d runs finished after cancellation (pool of %d)", finished, workers)
	}
	if cancelled == 0 {
		t.Fatal("no slot records the cancellation")
	}
	// Drain any stragglers a worker may have picked up in the race
	// between cancel and dispatch stopping.
	for {
		select {
		case <-testStarted:
			testGate.release()
		case <-time.After(50 * time.Millisecond):
			return
		}
	}
}

func TestSweepCacheSkipsExecution(t *testing.T) {
	cache, err := NewCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var specs []Spec
	for i := 0; i < 6; i++ {
		specs = append(specs, Spec{Experiment: "test-count", Seed: int64(i)})
	}
	r := &Runner{Workers: 3, Cache: cache}

	testRunCount.Store(0)
	first, err := r.Sweep(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	if got := testRunCount.Load(); got != int64(len(specs)) {
		t.Fatalf("first sweep executed %d runs, want %d", got, len(specs))
	}
	for _, sp := range specs {
		if _, ok := cache.Get(sp.Hash()); !ok {
			t.Fatalf("cache holds no entry for seed %d", sp.Seed)
		}
	}

	second, err := r.Sweep(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	if got := testRunCount.Load(); got != int64(len(specs)) {
		t.Fatalf("cached sweep re-executed: %d total runs", got)
	}
	for i := range second {
		if !second[i].Cached {
			t.Fatalf("slot %d not served from cache", i)
		}
		if string(second[i].Result) != string(first[i].Result) {
			t.Fatalf("cached result differs at %d: %s vs %s", i, second[i].Result, first[i].Result)
		}
	}

	// Canonical encodings of the whole arrays agree byte for byte:
	// a cached sweep is indistinguishable from a fresh one.
	a, _ := CanonicalJSON(first)
	b, _ := CanonicalJSON(second)
	if string(a) != string(b) {
		t.Fatal("cached sweep serialization differs from fresh sweep")
	}
}

func TestCacheRejectsCorruptEntries(t *testing.T) {
	cache, err := NewCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	sp := Spec{Experiment: "test-ok", Seed: 9}
	if err := cache.Put(sp, sp.Hash(), []byte(`{"seed":9}`)); err != nil {
		t.Fatal(err)
	}
	if _, ok := cache.Get(sp.Hash()); !ok {
		t.Fatal("stored entry missed")
	}
	// An entry filed under the wrong hash reads as a miss.
	other := Spec{Experiment: "test-ok", Seed: 10}
	if err := cache.Put(sp, other.Hash(), []byte(`{"seed":9}`)); err != nil {
		t.Fatal(err)
	}
	if _, ok := cache.Get(other.Hash()); ok {
		t.Fatal("mismatched entry trusted")
	}
}

func TestRunBypassesCache(t *testing.T) {
	cache, err := NewCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	sp := Spec{Experiment: "test-count", Seed: 77}
	r := &Runner{Cache: cache}
	testRunCount.Store(0)
	if res := r.Run(context.Background(), sp); res.Err != "" {
		t.Fatal(res.Err)
	}
	if res := r.Run(context.Background(), sp); res.Err != "" {
		t.Fatal(res.Err)
	} else if res.Cached {
		t.Fatal("single-run path consulted the cache")
	}
	if got := testRunCount.Load(); got != 2 {
		t.Fatalf("Run executed %d times, want 2", got)
	}
	if res := r.Run(context.Background(), sp); res.Value() == nil {
		t.Fatal("Run returned no live value")
	}
}
