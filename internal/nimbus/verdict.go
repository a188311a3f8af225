package nimbus

import (
	"time"

	"repro/internal/stats"
)

// Verdict summarises the estimator's elasticity windows over an
// interval. Zero windows means undecided; every other field is then
// zero.
type Verdict struct {
	Windows   int
	Mean, Max float64
	// Elastic is the majority classification: more than half of the
	// windows at or above the estimator's EtaThreshold.
	Elastic bool
}

// Verdict is the one place the paper's decision is taken: the majority
// of the eta windows emitted in [from, to) against EtaThreshold. The
// emulated cells and the real-socket probe client both call it.
func (e *Estimator) Verdict(from, to time.Duration) Verdict {
	etas := e.Elasticity.Window(from, to)
	if len(etas) == 0 {
		return Verdict{}
	}
	v := Verdict{Windows: len(etas), Mean: stats.Mean(etas)}
	v.Max, _ = stats.Max(etas)
	elastic := 0
	for _, eta := range etas {
		if eta >= EtaThreshold {
			elastic++
		}
	}
	v.Elastic = elastic*2 > len(etas)
	return v
}
