package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"runtime"
	"syscall"
	"time"

	"repro/internal/stats"
)

// setupReps is how many times a plain run sets the workload up; setup_s
// is the median, so one slow page-in does not set it.
const setupReps = 3

// cpuSeconds returns the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB returns the process's resident-set high-water mark (what
// /proc/self/status calls VmHWM; Linux reports it in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

func totalAllocMB() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.TotalAlloc) / 1e6
}

// quantile is stats.Quantile with no samples reading as 0.
func quantile(xs []float64, q float64) float64 {
	v, _ := stats.Quantile(xs, q)
	return v
}

// summarize reports the median of xs with its spread.
func summarize(xs []float64, unit string) metric {
	return metric{
		Value: quantile(xs, 0.5), Unit: unit, N: len(xs),
		Min: quantile(xs, 0), Q1: quantile(xs, 0.25), Q3: quantile(xs, 0.75), Max: quantile(xs, 1),
	}
}

func digest(b []byte) string { return fmt.Sprintf("%x", sha256.Sum256(b)) }

// setUp builds the workload's inputs from the seed and runs the one
// untimed warm-up op, whose result is the reference every timed op's
// bytes are compared against.
func setUp(wl *workload, o options) (instance, []byte, error) {
	inst, err := wl.setup(o.seed, o.quick)
	if err != nil {
		return nil, nil, fmt.Errorf("set-up: %w", err)
	}
	ref, err := inst.run(nil)
	if err != nil {
		return nil, nil, fmt.Errorf("warm-up op: %w", err)
	}
	return inst, ref, nil
}

// verify applies the op's output checks: the workload's invariants and
// byte equality with the reference result.
func verify(rec *record, inst instance, what string, got, ref []byte, err error) {
	switch {
	case err != nil:
		rec.fail("%s: %v", what, err)
	case !bytes.Equal(got, ref):
		rec.fail("%s: result bytes differ from the warm-up op's (%s vs %s)", what, shortDigest(digest(got)), shortDigest(digest(ref)))
	default:
		if err := inst.check(got); err != nil {
			rec.fail("%s: %v", what, err)
		}
	}
}

// measurePlain is the end-to-end run: tracing off, identical ops back
// to back in a closed loop for o.seconds, medians reported.
func measurePlain(wl *workload, o options) (record, error) {
	rec := record{Workload: wl.name, Seed: o.seed, Metrics: map[string]metric{}}
	rec.Work, rec.WorkUnit = wl.work(o.quick)

	reps := setupReps
	if o.quick {
		reps = 1
	}
	var (
		inst   instance
		ref    []byte
		setups []float64
	)
	for i := 0; i < reps; i++ {
		// Drop the previous repetition's inputs first, so peak RSS
		// counts one set of inputs, not however many the collector
		// had not yet reclaimed.
		inst, ref = nil, nil
		runtime.GC()
		start := time.Now()
		var err error
		if inst, ref, err = setUp(wl, o); err != nil {
			return rec, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	rec.Digest = digest(ref)
	runtime.GC()

	var wall, cpu, alloc []float64
	begin := time.Now()
	for len(wall) == 0 || time.Since(begin).Seconds() < o.seconds {
		a0, c0, t0 := totalAllocMB(), cpuSeconds(), time.Now()
		got, err := inst.run(nil)
		wall = append(wall, time.Since(t0).Seconds())
		cpu = append(cpu, cpuSeconds()-c0)
		alloc = append(alloc, totalAllocMB()-a0)
		rec.Attempted++
		verify(&rec, inst, fmt.Sprintf("op %d", rec.Attempted), got, ref, err)
	}
	rec.Correct = rec.Failed == 0

	rec.Metrics["setup_s"] = summarize(setups, "s")
	rec.Metrics["wall_s"] = summarize(wall, "s")
	rec.Metrics["cpu_s"] = summarize(cpu, "s")
	rec.Metrics["alloc_mb"] = summarize(alloc, "MB")
	rec.Metrics["peak_rss_mb"] = metric{Value: peakRSSMB(), Unit: "MB", N: 1}
	return rec, nil
}
