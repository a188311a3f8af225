// Package core assembles the paper's experiments from the substrate
// packages: one cell builder (hops with selectable queue disciplines
// and faults, flows over them), the Figure 1 isolation study, the
// Figure 2 M-Lab pipeline driver, the Figure 3 elasticity
// proof-of-concept, and the ablation studies DESIGN.md lists. Each
// experiment registers itself with internal/scenario beside its run
// function, which reads the scenario.Spec directly, so the command-line
// tools, the sweeps and the benchmark harness all run one
// implementation.
package core

import (
	"context"
	"fmt"
	"io"
	"time"

	"repro/internal/obs"
	"repro/internal/scenario"
)

// QueueKind selects the bottleneck queue discipline.
type QueueKind string

// Queue kinds supported by scenario construction.
const (
	QueueDropTail QueueKind = "droptail"
	QueueFQ       QueueKind = "fq"       // per-flow DRR fair queueing
	QueueFQCoDel  QueueKind = "fq_codel" // per-flow DRR + per-flow CoDel
	QueueSFQ      QueueKind = "sfq"      // stochastic fair queueing
	QueueUserIso  QueueKind = "user-iso" // per-user throttling + isolation
	QueueShaper   QueueKind = "shaper"   // aggregate token-bucket shaper
	QueuePolicer  QueueKind = "policer"  // aggregate token-bucket policer
)

// FmtBps renders a rate in human units.
func FmtBps(b float64) string {
	switch {
	case b >= 1e9:
		return fmt.Sprintf("%.2f Gbit/s", b/1e9)
	case b >= 1e6:
		return fmt.Sprintf("%.2f Mbit/s", b/1e6)
	case b >= 1e3:
		return fmt.Sprintf("%.2f kbit/s", b/1e3)
	default:
		return fmt.Sprintf("%.0f bit/s", b)
	}
}

// oneWay is the spec's one-way propagation delay: half its round trip.
func oneWay(sp scenario.Spec) time.Duration { return sp.RTT() / 2 }

// run adapts a typed run function to the registry's signature: a
// context check up front (simulations are not interruptible mid-run;
// the pool stops dispatching instead), then the run.
func run[T any](f func(scenario.Spec, *obs.Scope) (T, error)) func(context.Context, scenario.Spec, *obs.Scope) (any, error) {
	return func(ctx context.Context, sp scenario.Spec, sc *obs.Scope) (any, error) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return f(sp, sc)
	}
}

// table adapts a typed WriteTable method to the registry's any-typed
// renderer.
func table[T interface{ WriteTable(io.Writer) }]() func(io.Writer, any) {
	return func(w io.Writer, v any) {
		if r, ok := v.(T); ok {
			r.WriteTable(w)
		}
	}
}
