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

// withDefaults returns sp with every key it leaves unset taken from
// def: a duration, rate, round trip, buffer, flow or trial count that
// is not positive, and an empty queue, CCA list or phase list. Seeds,
// faults and the cross schedule are never defaulted, since zero is a
// value there. A run function resolves its spec once, and its table
// prints the resolved link.
func withDefaults(sp, def scenario.Spec) scenario.Spec {
	if sp.Duration() <= 0 {
		sp.DurationS = def.DurationS
	}
	if sp.RateBps <= 0 {
		sp.RateBps = def.RateBps
	}
	if sp.RTT()/2 <= 0 {
		sp.RTTMs = def.RTTMs
	}
	if sp.Queue == "" {
		sp.Queue = def.Queue
	}
	if sp.BufferBDP <= 0 {
		sp.BufferBDP = def.BufferBDP
	}
	if len(sp.CCAs) == 0 {
		sp.CCAs = def.CCAs
	}
	if len(sp.Phases) == 0 {
		sp.Phases = def.Phases
	}
	if phaseDuration(sp) <= 0 {
		sp.PhaseDurationS = def.PhaseDurationS
	}
	if sp.Flows <= 0 {
		sp.Flows = def.Flows
	}
	if sp.Trials <= 0 {
		sp.Trials = def.Trials
	}
	return sp
}

// oneWay is the spec's one-way propagation delay: half its round trip.
func oneWay(sp scenario.Spec) time.Duration { return sp.RTT() / 2 }

// phaseDuration is the spec's phase length.
func phaseDuration(sp scenario.Spec) time.Duration {
	return time.Duration(sp.PhaseDurationS * float64(time.Second))
}

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
