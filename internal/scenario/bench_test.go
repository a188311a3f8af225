package scenario_test

import (
	"context"
	"io"
	"testing"
	"time"

	_ "repro/internal/core" // registers fig3
	"repro/internal/obs"
	"repro/internal/scenario"
)

// fig3Grid is the benchmark workload: a fig3-style seed sweep of the
// Nimbus elasticity scenario with shortened phases, the shape of grid
// the paper's sensitivity studies run.
func fig3Grid(b *testing.B) []scenario.Spec {
	b.Helper()
	g := scenario.Grid{
		Base: scenario.Spec{
			Experiment:     "fig3",
			RateBps:        48e6,
			RTTMs:          100,
			PhaseDurationS: 5,
			Phases:         []string{"reno", "cbr"},
			FaultSeed:      1,
		},
		Seeds: []int64{1, 2, 3, 4, 5, 6, 7, 8},
	}
	specs, err := g.Expand()
	if err != nil {
		b.Fatal(err)
	}
	return specs
}

// BenchmarkSweep compares sequential and 4-worker execution of the
// same fig3-style grid. The runs are independent single-threaded
// simulations, so the parallel variant should cut wall-clock time by
// about the worker count on idle 4-core hardware; the acceptance bar
// is >=2x:
//
//	go test -bench Sweep -benchtime 1x ./internal/scenario
func BenchmarkSweep(b *testing.B) {
	specs := fig3Grid(b)
	bench := func(workers int) func(*testing.B) {
		return func(b *testing.B) {
			r := &scenario.Runner{Workers: workers}
			for i := 0; i < b.N; i++ {
				results, err := r.Sweep(context.Background(), specs)
				if err != nil {
					b.Fatal(err)
				}
				for _, res := range results {
					if res.Err != "" {
						b.Fatal(res.Err)
					}
				}
			}
			b.ReportMetric(float64(len(specs)), "runs/sweep")
		}
	}
	b.Run("sequential", bench(1))
	b.Run("workers4", bench(4))
}

// BenchmarkSweepWithProgress measures what the telemetry layer costs a
// real sweep: the same fig3-style grid with progress disabled (the nil
// fast path), with a full SweepReporter (JSONL stream + metrics), and
// with flight recorders attached. The acceptance bar is <=5% wall
// overhead for the enabled variants — the per-run work is a handful of
// mutex-serialized aggregate updates and one JSONL line against a
// multi-second simulation:
//
//	go test -bench SweepWithProgress -benchtime 1x ./internal/scenario
func BenchmarkSweepWithProgress(b *testing.B) {
	specs := fig3Grid(b)
	bench := func(setup func(*testing.B, *scenario.Runner) func()) func(*testing.B) {
		return func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r := &scenario.Runner{Workers: 4}
				finish := setup(b, r)
				results, err := r.Sweep(context.Background(), specs)
				if err != nil {
					b.Fatal(err)
				}
				for _, res := range results {
					if res.Err != "" {
						b.Fatal(res.Err)
					}
				}
				if finish != nil {
					finish()
				}
			}
			b.ReportMetric(float64(len(specs)), "runs/sweep")
		}
	}
	b.Run("disabled", bench(func(*testing.B, *scenario.Runner) func() { return nil }))
	b.Run("reporter", bench(func(b *testing.B, r *scenario.Runner) func() {
		rep := &scenario.SweepReporter{JSONL: io.Discard, Reg: obs.NewRegistry(), AggregateEvery: time.Second}
		r.ProgressFunc = rep.Func()
		return func() {
			if err := rep.Close(); err != nil {
				b.Fatal(err)
			}
		}
	}))
	b.Run("reporter+flight", bench(func(b *testing.B, r *scenario.Runner) func() {
		rep := &scenario.SweepReporter{JSONL: io.Discard, Reg: obs.NewRegistry(), AggregateEvery: time.Second}
		r.ProgressFunc = rep.Func()
		r.FlightDir = b.TempDir()
		return func() {
			if err := rep.Close(); err != nil {
				b.Fatal(err)
			}
		}
	}))
}
