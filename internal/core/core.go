// Package core assembles the paper's experiments from the substrate
// packages: one cell builder (hops with selectable queue disciplines
// and faults, flows over them), the Figure 1 isolation study, the
// Figure 2 M-Lab pipeline driver, the Figure 3 elasticity
// proof-of-concept, and the ablation studies DESIGN.md lists. Both the
// command-line tools and the benchmark harness call into this package
// so the printed tables come from a single implementation.
package core

import "fmt"

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
