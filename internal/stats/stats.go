// Package stats provides the statistical primitives used throughout the
// repository: empirical CDFs and quantiles, fairness metrics (Jain's
// index, Ware et al.'s harm), mergeable quantile sketches, and
// time-series windowing helpers.
//
// All functions are deterministic and allocation-conscious; none of them
// retain references to caller-provided slices unless documented.
package stats

import (
	"errors"
	"math"
	"sort"
)

// ErrEmpty is returned by reductions over empty inputs where a zero
// value would be misleading.
var ErrEmpty = errors.New("stats: empty input")

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Max returns the maximum of xs. It returns ErrEmpty for empty input.
func Max(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m, nil
}

// Quantile returns the q-quantile (0 <= q <= 1) of xs using linear
// interpolation between order statistics (type-7 estimator, the R and
// NumPy default). The input is not modified. It returns ErrEmpty for
// empty input and clamps q into [0, 1].
func Quantile(xs []float64, q float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return quantileSorted(sorted, q), nil
}

// quantileSorted computes the type-7 quantile of an already-sorted slice.
func quantileSorted(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 1 {
		return sorted[0]
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// JainIndex returns Jain's fairness index over per-entity allocations:
//
//	J = (Σx)² / (n · Σx²)
//
// J is 1 when all allocations are equal and 1/n when a single entity
// receives everything. Allocations must be non-negative; an all-zero or
// empty input yields 0.
func JainIndex(alloc []float64) float64 {
	if len(alloc) == 0 {
		return 0
	}
	var sum, sumsq float64
	for _, a := range alloc {
		sum += a
		sumsq += a * a
	}
	if sumsq == 0 {
		return 0
	}
	return sum * sum / (float64(len(alloc)) * sumsq)
}

// Harm implements Ware et al.'s harm metric for a single performance
// dimension where more is better (e.g. throughput): the fractional
// degradation a flow suffers relative to its solo baseline,
//
//	harm = (solo - observed) / solo, clamped to [0, 1].
//
// A harm of 0 means no degradation; 1 means starvation. solo must be
// positive; otherwise Harm returns 0.
func Harm(solo, observed float64) float64 {
	if solo <= 0 {
		return 0
	}
	h := (solo - observed) / solo
	if h < 0 {
		return 0
	}
	if h > 1 {
		return 1
	}
	return h
}
