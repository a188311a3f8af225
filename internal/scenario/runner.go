package scenario

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"repro/internal/obs"
)

// RunResult is one spec's outcome in a sweep. Result holds the
// canonical JSON encoding of the experiment's result value — the bytes
// compared by the determinism tests and stored in the cache — so two
// RunResults for the same spec are equal iff their Result bytes are.
// Exactly one of Result and Err is set.
type RunResult struct {
	Spec   Spec            `json:"spec"`
	Hash   string          `json:"hash"`
	Result json.RawMessage `json:"result,omitempty"`
	Err    string          `json:"error,omitempty"`

	// Cached reports whether the result came from the cache without
	// re-execution. Excluded from JSON so cached and fresh sweeps
	// serialize identically.
	Cached bool `json:"-"`
	// Elapsed is the run's wall-clock time (zero on cache hits).
	// Excluded from JSON for the same reason.
	Elapsed time.Duration `json:"-"`
	// FlightDump is the path of the post-mortem flight-recorder
	// artifact written for this run, when it failed and the runner has
	// a FlightDir. Excluded from JSON: paths are machine-local.
	FlightDump string `json:"-"`

	value any
}

// Value returns the live result object Run produced, for table
// rendering. It is nil on cache hits and failures: cached results
// exist only as canonical JSON.
func (r RunResult) Value() any { return r.value }

// Runner executes specs — singly or as sweeps across a worker pool.
// The zero value runs sequentially with no cache; it is ready to use.
type Runner struct {
	// Workers is the pool size for Sweep (<=0 means GOMAXPROCS). One
	// worker reproduces a sequential run exactly: results are keyed to
	// input order, never completion order, and runs never share state.
	Workers int
	// Cache, when non-nil, short-circuits specs whose hash already has
	// a stored result and stores new successes. Cache write failures
	// do not fail the run (the cache is an optimization); read
	// failures degrade to recomputation.
	Cache *Cache
	// NewScope, when non-nil, supplies each run's private
	// observability scope. Nil leaves runs unobserved (the fast path).
	// The function is called from worker goroutines and must be safe
	// for concurrent use; the scopes it returns must be distinct per
	// call — runs must never share metric registries or tracers.
	NewScope func(Spec) *obs.Scope

	// ProgressFunc, when non-nil, observes sweep progress: exactly one
	// RunStarted and one RunFinished event per spec (cache hits
	// included), each carrying the sweep-level aggregates as of that
	// moment. Calls are serialized by the runner, so implementations
	// need no locking, but they run on the sweep's critical path —
	// keep them cheap and never block. Nil costs the sweep one branch
	// per run and zero allocations.
	ProgressFunc func(ProgressEvent)

	// FlightDir, when non-empty, attaches a bounded obs.FlightRecorder
	// to every swept run (merged into the run's scope tracer, or
	// standing in as the tracer when the run is otherwise unobserved)
	// and, when the run returns an error or panics, dumps the retained
	// event tail as a ReadRunLog-compatible JSONL artifact at
	// <FlightDir>/<hash>.flight.jsonl. Panics in experiment code are
	// recovered in the worker either way and recorded as run errors;
	// DumpActiveFlights serves the SIGQUIT path.
	FlightDir string

	// flightMu guards the in-flight recorder table DumpActiveFlights
	// snapshots.
	flightMu sync.Mutex
	flights  map[int]*flightEntry
}

type flightEntry struct {
	spec Spec
	fr   *obs.FlightRecorder
}

func (r *Runner) workers() int {
	if r.Workers > 0 {
		return r.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// Run executes a single spec through the registry, bypassing the
// cache.
func (r *Runner) Run(ctx context.Context, sp Spec) RunResult {
	return r.runOne(ctx, sp, false, nil)
}

// Sweep executes every spec across the worker pool and returns results
// in input order regardless of completion order. A failing or
// panicking run records its error in its slot and does not stop the
// sweep. When ctx is cancelled, workers stop picking up new specs
// promptly (in-flight simulations finish — the event loop is not
// interruptible), unstarted slots carry the context error, and Sweep
// returns ctx.Err().
//
// Sweep is the materialized convenience over SweepStream; callers with
// very large sweeps should stream a SpecSource through SweepStream
// directly and never hold the spec or result lists in memory.
func (r *Runner) Sweep(ctx context.Context, specs []Spec) ([]RunResult, error) {
	results := make([]RunResult, 0, len(specs))
	err := r.SweepStream(ctx, SliceSource(specs), func(res RunResult) error {
		results = append(results, res)
		return nil
	})
	if err != nil {
		// Yields stop at the cancellation point; the never-dispatched
		// tail carries the context error, slot for slot.
		for i := len(results); i < len(specs); i++ {
			results = append(results, RunResult{Spec: specs[i], Hash: specs[i].Hash(), Err: err.Error()})
		}
	}
	return results, err
}

// heldPerWorker bounds, per worker, the finished results SweepStream
// holds while an earlier spec still runs. A census or hunt cell's
// result is under a kilobyte of JSON, so the bound holds tens of
// kilobytes per worker, while a head-of-line cell up to heldPerWorker
// times longer than its neighbours no longer stalls the pool behind
// it.
const heldPerWorker = 16

// streamJob pairs a spec with the channel its result will arrive on.
// The yield loop holds the result channels in dispatch order, so
// results come back in input order no matter which worker finishes
// first.
type streamJob struct {
	index int
	spec  Spec
	done  chan RunResult // buffered(1); receives exactly one result
}

// SweepStream executes every spec src yields across the worker pool,
// delivering results through yield strictly in input order. At most
// heldPerWorker×workers results wait behind a slower earlier spec, and
// the source is pulled only as workers and the yield callback make
// room, so a 10⁶-spec census streams at constant memory.
//
// Failing or panicking runs record their error in their RunResult and
// do not stop the stream. A mid-stream source error stops dispatch;
// every spec pulled before the error is still executed and yielded,
// then SweepStream returns the source error. When ctx is cancelled,
// no new specs are pulled, in-flight runs finish and are yielded, and
// SweepStream returns ctx.Err(). A non-nil error from yield stops the
// stream the same way and is returned. yield is called from
// SweepStream's goroutine; it must not call SweepStream reentrantly.
func (r *Runner) SweepStream(ctx context.Context, src SpecSource, yield func(RunResult) error) error {
	total := -1
	if n, known := src.Count(); known {
		total = n
	}
	st := newSweepState(total)

	sctx, stop := context.WithCancel(ctx)
	defer stop()

	workers := r.workers()
	jobs := make(chan streamJob)
	// order holds the result channels of the jobs dispatched and not
	// yet yielded, in input order; its capacity bounds the results held
	// behind the head of line. The dispatcher blocks here once that
	// many wait, so a long head-of-line spec idles the pool only after
	// the others have run heldPerWorker specs each past it.
	order := make(chan chan RunResult, heldPerWorker*workers)

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for j := range jobs {
				j.done <- r.runSwept(sctx, j.spec, j.index, worker, st)
			}
		}(w)
	}

	// The dispatcher owns the source: Next is only ever called from
	// this goroutine, so sources need no locking. srcErr is published
	// before close(order) and read after the yield loop drains it.
	var srcErr error
	go func() {
		defer close(order)
		defer close(jobs)
		for i := 0; ; i++ {
			if sctx.Err() != nil {
				return
			}
			sp, ok, err := src.Next()
			if err != nil {
				srcErr = err
				return
			}
			if !ok {
				return
			}
			j := streamJob{index: i, spec: sp, done: make(chan RunResult, 1)}
			select {
			case order <- j.done:
			case <-sctx.Done():
				return
			}
			select {
			case jobs <- j:
			case <-sctx.Done():
				// Already promised to the yield loop but no worker
				// will pick it up: fill the slot with the
				// cancellation so the drain below cannot deadlock.
				j.done <- RunResult{Spec: sp, Hash: sp.Hash(), Err: sctx.Err().Error()}
				return
			}
		}
	}()

	var yieldErr error
	for done := range order {
		res := <-done
		if yieldErr != nil {
			continue // draining after a failed yield
		}
		if err := yield(res); err != nil {
			yieldErr = err
			stop() // stop pulling; in-flight runs drain above
		}
	}
	wg.Wait()
	switch {
	case yieldErr != nil:
		return yieldErr
	case ctx.Err() != nil:
		return ctx.Err()
	default:
		return srcErr
	}
}

// runSwept wraps runOne with the sweep-only concerns: progress
// events, the per-run flight recorder, and panic recovery.
func (r *Runner) runSwept(ctx context.Context, sp Spec, index, worker int, st *sweepState) (res RunResult) {
	hash := sp.Hash()
	var fr *obs.FlightRecorder
	if r.FlightDir != "" {
		fr = obs.NewFlightRecorder()
		r.trackFlight(index, sp, fr)
		defer r.untrackFlight(index)
	}
	startAt := st.sinceStart()
	r.emitProgress(st, RunStarted, RunStats{
		Index: index, Spec: sp, Hash: hash, Worker: worker, Start: startAt,
	})

	res = RunResult{Spec: sp, Hash: hash}
	func() {
		defer func() {
			if p := recover(); p != nil {
				res.Err = fmt.Sprintf("panic: %v\n%s", p, debug.Stack())
			}
		}()
		res = r.runOne(ctx, sp, true, fr)
	}()
	if res.Err != "" && fr != nil {
		if path, err := r.dumpFlight(sp, fr, res.Err); err == nil {
			res.FlightDump = path
		}
	}

	r.emitProgress(st, RunFinished, RunStats{
		Index: index, Spec: sp, Hash: hash, Worker: worker,
		Start: startAt, Elapsed: res.Elapsed,
		Cached: res.Cached, Err: res.Err, FlightDump: res.FlightDump,
	})
	return res
}

func (r *Runner) trackFlight(index int, sp Spec, fr *obs.FlightRecorder) {
	r.flightMu.Lock()
	if r.flights == nil {
		r.flights = make(map[int]*flightEntry)
	}
	r.flights[index] = &flightEntry{spec: sp, fr: fr}
	r.flightMu.Unlock()
}

func (r *Runner) untrackFlight(index int) {
	r.flightMu.Lock()
	delete(r.flights, index)
	r.flightMu.Unlock()
}

// DumpActiveFlights writes a post-mortem artifact for every run
// currently in flight and returns the paths written. It is the
// SIGQUIT hook for stalled sweeps: ccac installs a handler that calls
// it so "what was the sweep doing?" has an answer even when no run
// has failed yet. Dumps race the still-running workers by design and
// may contain a few torn events; the runs themselves are undisturbed.
func (r *Runner) DumpActiveFlights() []string {
	r.flightMu.Lock()
	entries := make([]*flightEntry, 0, len(r.flights))
	for _, e := range r.flights {
		entries = append(entries, e)
	}
	r.flightMu.Unlock()
	var paths []string
	for _, e := range entries {
		if path, err := r.dumpFlight(e.spec, e.fr, "in flight (SIGQUIT dump)"); err == nil {
			paths = append(paths, path)
		}
	}
	return paths
}

// dumpFlight writes the recorder's tail as a run log named by the
// spec hash. Dump failures are not run failures: the run's own error
// is already recorded, and a read-only artifact must never change
// sweep results.
func (r *Runner) dumpFlight(sp Spec, fr *obs.FlightRecorder, errMsg string) (string, error) {
	if err := os.MkdirAll(r.FlightDir, 0o755); err != nil {
		return "", err
	}
	m := sp.Manifest()
	path := filepath.Join(r.FlightDir, m.Extra["spec_hash"]+".flight.jsonl")
	m.Extra["artifact"] = "flight"
	if err := fr.DumpFile(path, m, errMsg); err != nil {
		return "", err
	}
	return path, nil
}

func (r *Runner) runOne(ctx context.Context, sp Spec, useCache bool, fr *obs.FlightRecorder) RunResult {
	res := RunResult{Spec: sp, Hash: sp.Hash()}
	if err := ctx.Err(); err != nil {
		res.Err = err.Error()
		return res
	}
	if useCache {
		if raw, ok := r.Cache.Get(res.Hash); ok {
			res.Result = raw
			res.Cached = true
			return res
		}
	}
	exp, err := Lookup(sp.Experiment)
	if err != nil {
		res.Err = err.Error()
		return res
	}
	// The run sees the spec resolved against its registration's
	// Defaults; the result, its hash and the cache key keep the spec as
	// given.
	resolved, err := resolve(sp, exp.Defaults)
	if err != nil {
		res.Err = err.Error()
		return res
	}
	var sc *obs.Scope
	if r.NewScope != nil {
		sc = r.NewScope(sp)
	}
	if fr != nil {
		// The flight recorder rides the run's tracer seat: alone when
		// the run is otherwise untraced, fanned out otherwise.
		if sc == nil {
			sc = &obs.Scope{}
		}
		if sc.Tracer == nil {
			sc.Tracer = fr
		} else {
			sc.Tracer = obs.Multi{sc.Tracer, fr}
		}
	}
	start := time.Now()
	v, err := exp.Run(ctx, resolved, sc)
	res.Elapsed = time.Since(start)
	if err != nil {
		res.Err = err.Error()
		return res
	}
	raw, err := CanonicalJSON(v)
	if err != nil {
		res.Err = err.Error()
		return res
	}
	res.Result = raw
	res.value = v
	if useCache {
		// Best-effort: a failed write only costs a future recompute.
		_ = r.Cache.Put(sp, res.Hash, raw)
	}
	return res
}
