package stats

// Len returns the number of samples.
func (s *Series) Len() int { return len(s.samples) }

// N returns the exact sample count.
func (s *Sketch) N() uint64 { return s.n }
