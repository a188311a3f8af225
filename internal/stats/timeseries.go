package stats

import (
	"sort"
	"time"
)

// Sample is a timestamped scalar observation.
type Sample struct {
	At    time.Duration // virtual or wall time since series start
	Value float64
}

// Series is an append-only time series of Samples. Samples are
// expected in non-decreasing time order; an out-of-order append is
// clamped to the latest timestamp and counted in Clamped rather than
// panicking. Under the virtual clock an out-of-order append would be a
// simulator bug, but the same series now also record wall-clock
// measurements (the probe path), where clock steps and goroutine races
// make small regressions a survivable fact of life — the value is
// kept, its timestamp is pulled forward, and the count stays visible
// for diagnosis. The zero value is an empty series ready for use.
type Series struct {
	samples []Sample
	// Clamped counts appends whose timestamps ran backwards and were
	// clamped to the series' latest time.
	Clamped int64
}

// Append adds a sample at time at, clamping at to the latest existing
// timestamp if it would run backwards (see the type comment).
func (s *Series) Append(at time.Duration, v float64) {
	if n := len(s.samples); n > 0 && at < s.samples[n-1].At {
		at = s.samples[n-1].At
		s.Clamped++
	}
	s.samples = append(s.samples, Sample{At: at, Value: v})
}

// Samples returns the underlying samples. The returned slice is owned by
// the Series and must not be modified.
func (s *Series) Samples() []Sample { return s.samples }

// Window returns the values of samples with At in [from, to). An
// empty or inverted window (to <= from) yields no samples.
func (s *Series) Window(from, to time.Duration) []float64 {
	if to <= from {
		return nil
	}
	lo := sort.Search(len(s.samples), func(i int) bool { return s.samples[i].At >= from })
	hi := sort.Search(len(s.samples), func(i int) bool { return s.samples[i].At >= to })
	out := make([]float64, hi-lo)
	for i := lo; i < hi; i++ {
		out[i-lo] = s.samples[i].Value
	}
	return out
}

// Rate interprets the series as a cumulative counter (e.g. bytes
// delivered) and returns the average rate over [from, to] in
// value-units per second. It returns 0 when the window is empty or
// degenerate.
func (s *Series) Rate(from, to time.Duration) float64 {
	if to <= from || len(s.samples) == 0 {
		return 0
	}
	// Find last samples at or before from and to respectively.
	v0 := s.valueAtOrBefore(from)
	v1 := s.valueAtOrBefore(to)
	dt := (to - from).Seconds()
	if dt <= 0 {
		return 0
	}
	return (v1 - v0) / dt
}

func (s *Series) valueAtOrBefore(t time.Duration) float64 {
	i := sort.Search(len(s.samples), func(i int) bool { return s.samples[i].At > t })
	if i == 0 {
		return 0
	}
	return s.samples[i-1].Value
}

// EWMA is an exponentially weighted moving average with configurable
// smoothing factor alpha in (0, 1]. The zero value is invalid; use
// NewEWMA.
type EWMA struct {
	alpha float64
	value float64
	init  bool
}

// NewEWMA returns an EWMA with the given smoothing factor. Alpha is
// clamped into (0, 1].
func NewEWMA(alpha float64) *EWMA {
	if alpha <= 0 {
		alpha = 1e-9
	}
	if alpha > 1 {
		alpha = 1
	}
	return &EWMA{alpha: alpha}
}

// Update folds in a new observation and returns the updated average.
// The first observation initializes the average directly.
func (e *EWMA) Update(x float64) float64 {
	if !e.init {
		e.value = x
		e.init = true
		return x
	}
	e.value = e.alpha*x + (1-e.alpha)*e.value
	return e.value
}

// Value returns the current average (0 before any update).
func (e *EWMA) Value() float64 { return e.value }

// Initialized reports whether at least one observation has been folded.
func (e *EWMA) Initialized() bool { return e.init }

// MaxFilter tracks the maximum over a sliding time window, as used by
// rate estimators such as BBR's windowed max bandwidth filter. The zero
// value is invalid; use NewMaxFilter.
type MaxFilter struct {
	window  time.Duration
	entries []Sample
}

// NewMaxFilter returns a max filter over the given window length.
func NewMaxFilter(window time.Duration) *MaxFilter {
	if window <= 0 {
		window = time.Second
	}
	return &MaxFilter{window: window}
}

// Update inserts an observation at time at and returns the current
// windowed maximum. Observations must arrive in non-decreasing time
// order.
func (m *MaxFilter) Update(at time.Duration, v float64) float64 {
	// Drop entries dominated by the new value.
	for len(m.entries) > 0 && m.entries[len(m.entries)-1].Value <= v {
		m.entries = m.entries[:len(m.entries)-1]
	}
	m.entries = append(m.entries, Sample{At: at, Value: v})
	m.expire(at)
	return m.entries[0].Value
}

// Value returns the current windowed maximum given the current time,
// expiring stale entries. It returns 0 when empty.
func (m *MaxFilter) Value(now time.Duration) float64 {
	m.expire(now)
	if len(m.entries) == 0 {
		return 0
	}
	return m.entries[0].Value
}

func (m *MaxFilter) expire(now time.Duration) {
	cut := now - m.window
	i := 0
	for i < len(m.entries) && m.entries[i].At < cut {
		i++
	}
	if i > 0 {
		m.entries = append(m.entries[:0], m.entries[i:]...)
	}
}
