package sim

import "math/bits"

// Slices is an engine's store of reusable []T buffers whose lengths are
// powers of two, for layers above the engine whose per-run storage
// grows by doubling (a sender's ring of outstanding packets). A buffer
// taken with Get goes back with Put once its holder outgrows it, and
// every buffer taken during a run comes back at the engine's Reset, so
// the store holds no more than the largest run needed at its peak.
type Slices[T any] struct {
	// all is every buffer made, free the ones not held; both are
	// indexed by log2 of the buffer's length.
	all, free [][][]T
}

// reclaimer is what Reset calls on each Slices the engine holds.
type reclaimer interface{ reclaim() }

// SlicesOf returns the engine's store of []T buffers, creating it on
// first use.
func SlicesOf[T any](e *Engine) *Slices[T] {
	key := (*Slices[T])(nil)
	if s, ok := e.slices[key]; ok {
		return s.(*Slices[T])
	}
	s := &Slices[T]{}
	if e.slices == nil {
		e.slices = make(map[any]reclaimer)
	}
	e.slices[key] = s
	return s
}

// Get returns a zeroed buffer of length n, which must be a power of
// two.
func (s *Slices[T]) Get(n int) []T {
	c := bits.Len(uint(n)) - 1
	for len(s.all) <= c {
		s.all = append(s.all, nil)
		s.free = append(s.free, nil)
	}
	if k := len(s.free[c]); k > 0 {
		b := s.free[c][k-1]
		s.free[c] = s.free[c][:k-1]
		clear(b)
		return b
	}
	b := make([]T, n)
	s.all[c] = append(s.all[c], b)
	return b
}

// Put hands back a buffer Get returned, for the run's next Get of its
// length. The caller must not touch it again.
func (s *Slices[T]) Put(b []T) {
	c := bits.Len(uint(len(b))) - 1
	s.free[c] = append(s.free[c], b)
}

// reclaim makes every buffer free again.
func (s *Slices[T]) reclaim() {
	for c := range s.all {
		s.free[c] = append(s.free[c][:0], s.all[c]...)
	}
}
