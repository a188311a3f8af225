package transport

// Inflight returns the outstanding byte count.
func (s *Sender) Inflight() int { return s.inflightBytes }
