package scenario

// SpecSource is the streaming seam the sweep spine is built on: a pull
// iterator over specs. It exists so that population-scale sweeps
// (10⁵–10⁶ specs) never materialize their spec list — the runner pulls
// one spec at a time and keeps only O(workers) in flight.
//
// Sources are consumed from a single goroutine; implementations need
// no internal locking. A source is exhausted when Next returns
// ok=false; after an error, callers must not call Next again.
type SpecSource interface {
	// Next returns the next spec. ok=false means the source is
	// exhausted (err nil) or failed mid-stream (err non-nil).
	Next() (sp Spec, ok bool, err error)
	// Count returns the total number of specs the source will produce,
	// when that is knowable up front (slices and index ranges know it;
	// a spec stream read from a pipe does not). Progress renderers use
	// the hint for percentages and ETAs and must degrade gracefully —
	// count-only, no ETA — when known=false.
	Count() (n int, known bool)
}

// sliceSource adapts a materialized spec list to the SpecSource seam.
type sliceSource struct {
	specs []Spec
	i     int
}

// SliceSource returns a SpecSource over an in-memory spec list. It is
// how the materialized callers (Sweep, grid files already expanded)
// ride the streaming spine.
func SliceSource(specs []Spec) SpecSource {
	return &sliceSource{specs: specs}
}

func (s *sliceSource) Next() (Spec, bool, error) {
	if s.i >= len(s.specs) {
		return Spec{}, false, nil
	}
	sp := s.specs[s.i]
	s.i++
	return sp, true, nil
}

func (s *sliceSource) Count() (int, bool) { return len(s.specs), true }
