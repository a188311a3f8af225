package nimbus

// Eta returns the most recent elasticity value; ok is false until a
// full window has been observed.
func (e *Estimator) Eta() (eta float64, ok bool) { return e.etaLast, e.etaOK }
